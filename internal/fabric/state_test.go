package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"eagletree/internal/binfmt"
	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/snapshot"
)

// encodedState returns a real encoded snapshot: E2's device, fresh.
func encodedState(t *testing.T) []byte {
	t.Helper()
	cfg, err := suiteDoc(t, "E2").Base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snapshot.Encode(ds)
}

// reseal returns a snapshot whose seal holds but which the decoder refuses:
// one byte appended to the payload, and the CRC32 written again over it.
func reseal(t *testing.T, data []byte) []byte {
	t.Helper()
	const magic = len("EGTSNAP")
	f := binfmt.Format{Magic: string(data[:magic]), Version: data[magic]}
	bad := f.Seal(append(bytes.Clone(data[:len(data)-4]), 0))
	if err := snapshot.CheckSeal(bad); err != nil {
		t.Fatalf("resealed state fails its seal: %v", err)
	}
	if _, err := snapshot.Decode(bad); err == nil {
		t.Fatal("resealed state decodes")
	}
	return bad
}

// stateFiles lists every file in a cache directory, temporary ones too.
func stateFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// awaitFetch runs serveFetch for worker on its own goroutine and returns
// what it answers; the test fails if it is still waiting after ten seconds.
func awaitFetch(t *testing.T, c *coordinator, worker int, key string) func() []byte {
	got := make(chan []byte, 1)
	go func() {
		d, err := c.serveFetch(context.Background(), worker, key)
		if err != nil {
			t.Errorf("worker %d fetch: %v", worker, err)
		}
		got <- d
	}()
	return func() []byte {
		t.Helper()
		select {
		case d := <-got:
			return d
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d still waiting for %q", worker, key)
			return nil
		}
	}
}

// TestUnsealedPutFailsOver pins the coordinator's put admission: a published
// state whose seal fails — a flipped bit, a cut-off tail — is dropped. The
// build it answered fails over to the next worker that asks, exactly as when
// the owner dies, and nothing reaches the cache directory. A sealed put is
// admitted and written.
func TestUnsealedPutFailsOver(t *testing.T) {
	state := encodedState(t)
	flipped := bytes.Clone(state)
	flipped[len(flipped)/2] ^= 0x10
	for _, tc := range []struct {
		name string
		data []byte
	}{{"flipped bit", flipped}, {"truncated", state[:len(state)-9]}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := testCoordinator(experiment.NewStateCache(dir))
			if d, err := c.serveFetch(context.Background(), 0, "prep"); err != nil || d != nil {
				t.Fatalf("first fetch = (%d bytes, %v), want a delegated miss", len(d), err)
			}
			waiter := awaitFetch(t, c, 1, "prep")
			c.handlePut(0, Msg{Type: MsgPut, Key: "prep", Data: tc.data})
			if d := waiter(); d != nil {
				t.Fatalf("the waiter was served %d bytes of a put whose seal fails, want a delegated miss", len(d))
			}
			c.mu.Lock()
			b, ok := c.builds["prep"]
			c.mu.Unlock()
			if !ok || b.owner != 1 {
				t.Fatalf("build entry = %+v (present %v), want it failed over to worker 1", b, ok)
			}
			if _, ok := c.cache.Peek("prep"); ok {
				t.Fatal("the cache holds the dropped state")
			}
			if files := stateFiles(t, dir); len(files) != 0 {
				t.Fatalf("a dropped put left %v in the cache directory", files)
			}

			// Worker 1 publishes a sealed state: admitted, written, served.
			c.handlePut(1, Msg{Type: MsgPut, Key: "prep", Data: state})
			if d, ok := c.cache.Peek("prep"); !ok || !bytes.Equal(d, state) {
				t.Fatal("a sealed put was not admitted")
			}
			if files := stateFiles(t, dir); len(files) != 1 {
				t.Fatalf("a sealed put left %v in the cache directory, want one state file", files)
			}
		})
	}
}

// TestRejectEvictsAndDelegates: the coordinator serves a disk hit on its seal
// alone, so it can serve a state that does not decode. The worker's reject
// evicts that state from memory and disk and hands the rebuild to that
// worker as a miss; a second worker waits for its put. A late reject of the
// old bytes keeps the rebuilt state.
func TestRejectEvictsAndDelegates(t *testing.T) {
	dir := t.TempDir()
	good := encodedState(t)
	bad := reseal(t, good)
	if err := experiment.NewStateCache(dir).Put("prep", bad); err != nil {
		t.Fatal(err)
	}
	c := testCoordinator(experiment.NewStateCache(dir))
	ctx := context.Background()
	served, err := c.serveFetch(ctx, 0, "prep")
	if err != nil || !bytes.Equal(served, bad) {
		t.Fatalf("fetch from the warm directory = (%d bytes, %v), want the stored state", len(served), err)
	}

	c.evict(0, "prep", served, "does not decode")
	if c.cache.Len() != 0 {
		t.Fatal("the rejected state is still in memory")
	}
	if files := stateFiles(t, dir); len(files) != 0 {
		t.Fatalf("the rejected state is still on disk: %v", files)
	}
	if d, err := c.serveFetch(ctx, 0, "prep"); err != nil || d != nil {
		t.Fatalf("fetch after the reject = (%d bytes, %v), want the rebuild delegated", len(d), err)
	}
	waiter := awaitFetch(t, c, 1, "prep")
	c.handlePut(0, Msg{Type: MsgPut, Key: "prep", Data: good})
	if d := waiter(); !bytes.Equal(d, good) {
		t.Fatalf("the waiter got %d bytes, want the rebuilt state", len(d))
	}

	c.evict(1, "prep", served, "does not decode")
	if d, ok := c.cache.Peek("prep"); !ok || !bytes.Equal(d, good) {
		t.Fatal("a late reject of the old state evicted the rebuilt one")
	}
	if files := stateFiles(t, dir); len(files) != 1 {
		t.Fatalf("cache directory %v, want the rebuilt state file", files)
	}
}

// TestRejectedStateRebuiltOnce puts a state in the coordinator's disk cache
// that is sealed but does not decode, and sweeps over it with two workers.
// The rows must equal the sequential run's, exactly one worker builds the
// state, the log names the rejected key, and the rebuilt state replaces the
// bad one in memory and on disk, so a second sweep over the directory is
// served without a reject or a build.
func TestRejectedStateRebuiltOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full small-scale experiments")
	}
	doc := suiteDoc(t, "E2")
	want := dump(sequentialResults(t, doc))
	dir := t.TempDir()

	type sweep struct {
		builds  int
		keys    map[string]bool
		rejects []string
		cache   *experiment.StateCache
	}
	run := func() sweep {
		t.Helper()
		s := sweep{keys: map[string]bool{}, cache: experiment.NewStateCache(dir)}
		var mu sync.Mutex
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		conns, wg := startWorkers(t, 2, nil)
		res, err := Run(ctx, doc, Options{Conns: conns, Cache: s.cache,
			Observer: experiment.ObserverFunc(func(ev experiment.Event) {
				switch ev.Kind {
				case experiment.EventPrepareMiss:
					s.builds++
					s.keys[ev.CacheKey] = true
				case experiment.EventPrepareHit:
					s.keys[ev.CacheKey] = true
				}
			}),
			Logf: func(format string, args ...any) {
				if line := fmt.Sprintf(format, args...); strings.Contains(line, "rejected") {
					mu.Lock()
					s.rejects = append(s.rejects, line)
					mu.Unlock()
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if got := dump(res); got != want {
			t.Fatalf("rows diverge from the sequential run:\n--- distributed\n%s--- sequential\n%s", got, want)
		}
		return s
	}

	cold := run()
	files := stateFiles(t, dir)
	if cold.builds != 1 || len(cold.keys) != 1 || len(files) != 1 {
		t.Fatalf("cold sweep: %d builds of %d keys, %d state files; want 1, 1, 1", cold.builds, len(cold.keys), len(files))
	}
	var key string
	for k := range cold.keys {
		key = k
	}
	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := reseal(t, good)
	if err := os.WriteFile(files[0], bad, 0o644); err != nil {
		t.Fatal(err)
	}

	rejected := run()
	if rejected.builds != 1 {
		t.Errorf("%d workers built the rejected state, want exactly 1 (the others wait for its put)", rejected.builds)
	}
	if len(rejected.rejects) == 0 || !strings.Contains(rejected.rejects[0], fmt.Sprintf("%q", key)) {
		t.Errorf("reject log lines %q do not name the key %q", rejected.rejects, key)
	}
	if d, ok := rejected.cache.Peek(key); !ok || bytes.Equal(d, bad) {
		t.Error("the coordinator's memory still holds the rejected state")
	}
	if files := stateFiles(t, dir); len(files) != 1 {
		t.Errorf("cache directory holds %v after the rebuild, want one state file", files)
	} else if d, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(d, good) {
		t.Errorf("the state file is not the rebuilt state (%d bytes, %v)", len(d), err)
	}

	warm := run()
	if warm.builds != 0 || len(warm.rejects) != 0 {
		t.Errorf("second sweep over the directory: %d builds, rejects %q; want the rebuilt state served", warm.builds, warm.rejects)
	}
}

// TestV2PeerRefused: a protocol 2 peer — without reject — is refused at its
// first frame with a *ProtocolError, on either end of the session.
func TestV2PeerRefused(t *testing.T) {
	v2 := func(hdr string) []byte { return frame(2, payload(hdr, nil)) }

	// A version 2 coordinator's hello.
	var out bytes.Buffer
	err := Serve(context.Background(), bytes.NewReader(v2(`{"type":"hello","version":2}`)), &out, WorkerOptions{})
	var pe *ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "got 2") {
		t.Errorf("worker given a version 2 hello: %v, want a *ProtocolError naming version 2", err)
	}
	if out.Len() != 0 {
		t.Errorf("worker answered a version 2 hello with %d bytes", out.Len())
	}

	// A version 2 worker's ready.
	coordSide, workerSide := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, workerSide) }()
	go func() { _, _ = workerSide.Write(v2(`{"type":"ready","version":2,"count":4}`)) }()
	_, err = Run(context.Background(), suiteDoc(t, "E2"), Options{Conns: []io.ReadWriteCloser{coordSide}})
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "got 2") {
		t.Errorf("coordinator given a version 2 ready: %v, want a *ProtocolError naming version 2", err)
	}
}
