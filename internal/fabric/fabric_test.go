package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"eagletree/internal/experiment"
	"eagletree/internal/resultstore"
	"eagletree/internal/spec"
)

// suiteDoc fetches one predefined small-scale suite document by id prefix.
func suiteDoc(t testing.TB, id string) spec.Experiment {
	t.Helper()
	for _, e := range experiment.SuiteSpecs(experiment.Small) {
		if strings.HasPrefix(e.Name, id+"-") {
			return e
		}
	}
	t.Fatalf("no suite experiment %s", id)
	return spec.Experiment{}
}

// docKeys is the lease key list a coordinator computes for doc.
func docKeys(t testing.TB, doc spec.Experiment) []string {
	t.Helper()
	def, err := experiment.FromSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := def.Keys()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// startWorkers launches n in-process worker sessions over synchronous pipes
// and returns the coordinator-side transports. Worker errors fail the test
// unless the worker's transport was deliberately killed.
func startWorkers(t *testing.T, n int, cache func(int) *experiment.StateCache) ([]io.ReadWriteCloser, *sync.WaitGroup) {
	t.Helper()
	var wg sync.WaitGroup
	conns := make([]io.ReadWriteCloser, n)
	for i := 0; i < n; i++ {
		coordSide, workerSide := net.Pipe()
		conns[i] = coordSide
		wg.Add(1)
		go func(id int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			var c *experiment.StateCache
			if cache != nil {
				c = cache(id)
			}
			err := Serve(context.Background(), conn, conn, WorkerOptions{Cache: c})
			// A severed transport (the kill test) surfaces as a closed pipe
			// or a stream truncated mid-message; both are the simulated
			// crash, not a worker bug.
			if err != nil && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, ErrTruncated) {
				t.Errorf("worker %d: %v", id, err)
			}
		}(i, workerSide)
	}
	return conns, &wg
}

// sequentialResults runs the document in-process, single worker — the golden
// the distributed merge must reproduce bit for bit.
func sequentialResults(t *testing.T, doc spec.Experiment) experiment.Results {
	t.Helper()
	def, err := experiment.FromSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.New(experiment.Options{Workers: 1}).Run(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dump renders results the way the full-scale golden does: every row's exact
// field values, so a single flipped bit anywhere fails the comparison.
func dump(res experiment.Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", res.Name)
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%#v\n", r)
	}
	return b.String()
}

// TestDistributedMatchesSequential shards an aged-device sweep (E2: four
// policy variants over one shared prepared state) across two workers and
// requires the merged Results to be identical — bit for bit — to the
// sequential run. This exercises the whole fabric: handshake, leases, the
// delegated preparation build, the put/fetch state flow, and ordered merge.
func TestDistributedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full small-scale experiments")
	}
	doc := suiteDoc(t, "E2")
	want := dump(sequentialResults(t, doc))

	conns, wg := startWorkers(t, 2, nil)
	var events []experiment.Event
	res, err := Run(context.Background(), doc, Options{
		Conns: conns,
		Observer: experiment.ObserverFunc(func(ev experiment.Event) {
			events = append(events, ev)
		}),
	})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	wg.Wait()
	if got := dump(res); got != want {
		t.Errorf("distributed rows diverge from sequential:\n--- distributed\n%s--- sequential\n%s", got, want)
	}

	// The merged event stream keeps the runner's contract: one queued and
	// one done event per variant, one terminal experiment event.
	counts := map[experiment.EventKind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	n := len(res.Rows)
	if counts[experiment.EventVariantQueued] != n || counts[experiment.EventVariantDone] != n {
		t.Errorf("event counts %v, want %d queued and %d done", counts, n, n)
	}
	if counts[experiment.EventExperimentDone] != 1 {
		t.Errorf("%d experiment-done events, want 1", counts[experiment.EventExperimentDone])
	}
	if counts[experiment.EventPrepareHit]+counts[experiment.EventPrepareMiss] != n {
		t.Errorf("prepare events %v, want %d across hit+miss", counts, n)
	}
}

// TestDistributedSharesPreparedState: with a shared coordinator cache, the
// preparation for an aged-device sweep is built exactly once — the first
// worker's miss is delegated, published, and every later variant on either
// worker restores from the wire or local memory.
func TestDistributedSharesPreparedState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full small-scale experiments")
	}
	doc := suiteDoc(t, "E2")
	cache := experiment.NewStateCache("")
	conns, wg := startWorkers(t, 2, nil)
	res, err := Run(context.Background(), doc, Options{Conns: conns, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if n := cache.Len(); n != 1 {
		t.Errorf("coordinator cache holds %d states, want 1 (E2 shares one prepared device)", n)
	}
}

// killableConn wraps a transport so the test can sever it mid-session,
// simulating a worker crash from the coordinator's point of view.
type killableConn struct {
	io.ReadWriteCloser
	once sync.Once
}

func (k *killableConn) kill() { k.once.Do(func() { k.ReadWriteCloser.Close() }) }

// TestWorkerKillLeaseReissue kills one of two workers as soon as its first
// variant completes; its outstanding lease must be re-issued to the
// survivor and the merged Results must still be byte-identical to the
// sequential run — the fabric's crash-tolerance contract.
func TestWorkerKillLeaseReissue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full small-scale experiments")
	}
	doc := suiteDoc(t, "E1") // 8 variants: plenty of leases left to lose
	want := dump(sequentialResults(t, doc))

	conns, wg := startWorkers(t, 2, nil)
	victim := &killableConn{ReadWriteCloser: conns[0]}
	conns[0] = victim

	var mu sync.Mutex
	done := 0
	res, err := Run(context.Background(), doc, Options{
		Conns: conns,
		Observer: experiment.ObserverFunc(func(ev experiment.Event) {
			if ev.Kind != experiment.EventVariantDone {
				return
			}
			mu.Lock()
			done++
			first := done == 1
			mu.Unlock()
			if first {
				victim.kill()
			}
		}),
	})
	if err != nil {
		t.Fatalf("distributed run with killed worker: %v", err)
	}
	wg.Wait()
	if got := dump(res); got != want {
		t.Errorf("rows diverge after worker kill:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
}

// testCoordinator is a two-variant coordinator over cache with no sessions:
// the unit tests drive its fetch, put and lease handlers directly.
func testCoordinator(cache *experiment.StateCache) *coordinator {
	c := &coordinator{
		keys:    []string{"k0", "k1"},
		labels:  []string{"v0", "v1"},
		state:   make([]leaseState, 2),
		rows:    make([]experiment.Row, 2),
		errs:    make([]error, 2),
		started: make([]time.Time, 2),
		flagged: make([]bool, 2),
		builds:  make(map[string]*buildState),
		cache:   cache,
	}
	c.cond = sync.NewCond(&c.mu)
	c.opts.Logf = func(string, ...any) {}
	return c
}

// TestFailedBuildFailsOver pins the delegated-build failover contract: a
// worker that owns a preparation build and then ends its lease without
// publishing (a failed or canceled local build sends no put) must hand the
// build over, or every waiter — including the owner itself on a later lease —
// blocks forever on the never-closed ready channel.
func TestFailedBuildFailsOver(t *testing.T) {
	c := testCoordinator(experiment.NewStateCache(""))
	ctx := context.Background()

	// Worker 0 misses the prep key: the build is delegated to it.
	data, err := c.serveFetch(ctx, 0, "prep")
	if err != nil || data != nil {
		t.Fatalf("first fetch = (%v, %v), want delegated miss (nil, nil)", data, err)
	}

	// Worker 1 asks for the same key and must wait on worker 0's build.
	got := make(chan []byte, 1)
	go func() {
		d, err := c.serveFetch(ctx, 1, "prep")
		if err != nil {
			t.Errorf("waiter fetch: %v", err)
		}
		got <- d
	}()

	// Worker 0's lease ends in failure — its build will never be published.
	c.complete(0, 0, experiment.Row{}, errors.New("prep failed"), 0)

	select {
	case d := <-got:
		// The waiter retried and was handed ownership (a fresh miss).
		if d != nil {
			t.Fatalf("waiter got %d bytes, want delegated miss", len(d))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after the build owner's lease failed")
	}

	// Ownership really moved: worker 1 now holds the in-flight build.
	c.mu.Lock()
	b, ok := c.builds["prep"]
	c.mu.Unlock()
	if !ok || b.owner != 1 {
		t.Fatalf("build entry = %+v (present %v), want owner 1", b, ok)
	}

	// And the former owner is not wedged either: its next fetch for the same
	// key waits on worker 1 rather than deadlocking on its own stale entry.
	ctx2, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	reissued := make(chan error, 1)
	go func() {
		_, err := c.serveFetch(ctx2, 0, "prep")
		reissued <- err
	}()
	c.complete(1, 1, experiment.Row{}, errors.New("prep failed again"), 0)
	if err := <-reissued; err != nil {
		t.Fatalf("former owner's re-fetch: %v (self-deadlock would time out)", err)
	}
}

// TestCanceledWorkerDropsSession: a worker whose own context is canceled
// mid-lease (SIGTERM on its host) must drop the session — so the coordinator
// re-issues the lease as on a crash — instead of reporting MsgFailed, which
// would record a permanent variant failure from a graceful stop.
func TestCanceledWorkerDropsSession(t *testing.T) {
	doc := suiteDoc(t, "E2")
	docJSON, err := spec.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	keys := docKeys(t, doc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coordSide, workerSide := net.Pipe()
	defer coordSide.Close()
	serveErr := make(chan error, 1)
	go func() {
		err := Serve(ctx, workerSide, workerSide, WorkerOptions{})
		workerSide.Close()
		serveErr <- err
	}()
	codec := NewCodec(coordSide, coordSide)
	if err := codec.Send(Msg{Type: MsgHello, Version: ProtoVersion, Spec: docJSON}); err != nil {
		t.Fatal(err)
	}
	if m, err := codec.Recv(); err != nil || m.Type != MsgReady {
		t.Fatalf("handshake: %v %v", m, err)
	}
	if err := codec.Send(Msg{Type: MsgLease, Index: 0, Key: keys[0]}); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The worker may stream events or fetches before noticing the cancel; it
	// must never turn the canceled lease into a MsgFailed.
	for {
		m, err := codec.Recv()
		if err != nil {
			break // session dropped — the coordinator would re-issue
		}
		switch m.Type {
		case MsgFailed:
			t.Fatalf("canceled worker reported permanent failure: %q", m.Error)
		case MsgFetch:
			if err := codec.Send(Msg{Type: MsgState, Key: m.Key, Miss: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := <-serveErr; err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v, want the canceled-context error", err)
	}
}

// fakeWorker answers the handshake with a wrong variant digest — the
// signature of a worker binary whose component registry resolves different
// configurations. The coordinator must refuse to lease it anything.
func TestHandshakeSkewRejected(t *testing.T) {
	doc := suiteDoc(t, "E2")
	coordSide, workerSide := net.Pipe()
	go func() {
		codec := NewCodec(workerSide, workerSide)
		if m, err := codec.Recv(); err != nil || m.Type != MsgHello {
			return
		}
		_ = codec.Send(Msg{Type: MsgReady, Version: ProtoVersion, Count: 1, Sum: "deadbeef"})
		// Read until the coordinator hangs up; it must never send a lease.
		for {
			m, err := codec.Recv()
			if err != nil {
				return
			}
			if m.Type == MsgLease {
				panic("coordinator leased to a skewed worker")
			}
		}
	}()
	_, err := Run(context.Background(), doc, Options{Conns: []io.ReadWriteCloser{coordSide}})
	if err == nil {
		t.Fatal("skewed handshake accepted")
	}
	if !strings.Contains(err.Error(), "no live workers") {
		t.Errorf("error %v does not report worker exhaustion", err)
	}
}

// TestRunVariantOutOfRange pins the worker-side lease validation path.
func TestLeaseIndexValidation(t *testing.T) {
	doc := suiteDoc(t, "E2")
	docJSON, err := spec.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	keys := docKeys(t, doc)
	coordSide, workerSide := net.Pipe()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- Serve(context.Background(), workerSide, workerSide, WorkerOptions{})
	}()
	codec := NewCodec(coordSide, coordSide)
	if err := codec.Send(Msg{Type: MsgHello, Version: ProtoVersion, Spec: docJSON}); err != nil {
		t.Fatal(err)
	}
	if m, err := codec.Recv(); err != nil || m.Type != MsgReady {
		t.Fatalf("handshake: %v %v", m, err)
	}
	// A lease whose key does not match the worker's own resolution of that
	// grid position must be refused as a protocol error.
	if err := codec.Send(Msg{Type: MsgLease, Index: 0, Key: keys[0] + "-skew"}); err != nil {
		t.Fatal(err)
	}
	err = <-serveErr
	var pe *ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("worker accepted a skewed lease: %v", err)
	}
	coordSide.Close()
}

// TestStoreRowsDistributedBitIdentical pins the persistence acceptance bar:
// the rows a result-store sink captures from a distributed 4-worker run must
// be bit-identical — same encoded segment bytes — to the rows it captures
// from the sequential runner for the same document. The sink only listens to
// the terminal event stream, so this holds exactly when the coordinator's
// merged events reproduce the sequential runner's.
func TestStoreRowsDistributedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full small-scale experiments")
	}
	doc := suiteDoc(t, "E2")

	seqSink, err := resultstore.NewSink(nil, doc, "pin")
	if err != nil {
		t.Fatal(err)
	}
	def, err := experiment.FromSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.New(experiment.Options{Workers: 1, Observer: seqSink}).Run(context.Background(), def); err != nil {
		t.Fatal(err)
	}

	distSink, err := resultstore.NewSink(nil, doc, "pin")
	if err != nil {
		t.Fatal(err)
	}
	conns, wg := startWorkers(t, 4, nil)
	if _, err := Run(context.Background(), doc, Options{Conns: conns, Observer: distSink}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	seqRows, distRows := seqSink.Rows(), distSink.Rows()
	if len(seqRows) == 0 || len(seqRows) != len(distRows) {
		t.Fatalf("row counts: sequential %d, distributed %d", len(seqRows), len(distRows))
	}
	seqSeg := resultstore.EncodeSegment(seqRows)
	distSeg := resultstore.EncodeSegment(distRows)
	if !bytes.Equal(seqSeg, distSeg) {
		t.Fatalf("persisted rows diverge between sequential and distributed runs:\n--- sequential\n%#v\n--- distributed\n%#v", seqRows, distRows)
	}
}
