package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os/exec"
	"sync"
	"time"

	"eagletree/internal/experiment"
	"eagletree/internal/sim"
	"eagletree/internal/spec"
)

// Options configures a distributed sweep.
type Options struct {
	// Workers is how many local worker subprocesses to launch with Command.
	Workers int
	// Command is the argv launching one worker subprocess speaking the
	// stdio transport (the CLI passes the running binary's own
	// `worker -serve stdio`). Required when Workers > 0.
	Command []string
	// Connect lists TCP addresses of already-running workers
	// (`eagletree worker -listen`); each contributes one session alongside
	// the subprocesses.
	Connect []string
	// Conns supplies pre-established transports (tests, custom fabrics).
	Conns []io.ReadWriteCloser
	// Cache is the coordinator's content-addressed state store; nil means a
	// private in-memory cache for this sweep.
	Cache *experiment.StateCache
	// Observer receives the merged event stream: queue admission up front,
	// workers' live prepare provenance, one terminal event per variant, one
	// EventExperimentDone. Calls are serialized.
	Observer experiment.Observer
	// Logf, when non-nil, receives coordinator progress lines: lease
	// grants, worker deaths and re-issues, straggler warnings, per-worker
	// wall-clock accounting.
	Logf func(format string, args ...any)
	// SeriesBucket, when positive, overrides the document's completion
	// time-series bucket on every worker (the CLI's -timeline flag).
	SeriesBucket sim.Duration
	// WorkerStderr receives subprocess workers' stderr; nil discards it.
	WorkerStderr io.Writer
	// StragglerFactor flags an outstanding lease as a straggler once its
	// age exceeds this multiple of the mean completed variant wall clock;
	// 0 means the default of 4.
	StragglerFactor float64
}

// Run executes a spec document's variant grid across worker processes and
// merges the rows back by grid position. The merged Results are byte-for-byte
// identical to a sequential run of the same document: every variant executes
// in a fully isolated stack on some worker, and assembly is by index, exactly
// as the in-process Runner assembles. Workers that crash mid-lease lose only
// that lease — it is re-issued to a surviving worker; completed rows stand.
func Run(ctx context.Context, doc spec.Experiment, opts Options) (experiment.Results, error) {
	res := experiment.Results{Name: doc.Name}
	def, err := experiment.FromSpec(doc)
	if err != nil {
		return res, err
	}
	keys, err := def.Keys()
	if err != nil {
		return res, err
	}
	docJSON, err := spec.Encode(doc)
	if err != nil {
		return res, err
	}

	c := &coordinator{
		doc:      doc,
		docJSON:  docJSON,
		keys:     keys,
		labels:   make([]string, len(keys)),
		opts:     opts,
		state:    make([]leaseState, len(keys)),
		rows:     make([]experiment.Row, len(keys)),
		errs:     make([]error, len(keys)),
		started:  make([]time.Time, len(keys)),
		flagged:  make([]bool, len(keys)),
		builds:   make(map[string]*buildState),
		cache:    opts.Cache,
		begun:    time.Now(), //lint:wallclock sweep wall-time telemetry
		deadline: opts.StragglerFactor,
	}
	for i, v := range def.Variants {
		c.labels[i] = v.Label
	}
	if c.cache == nil {
		c.cache = experiment.NewStateCache("")
	}
	if c.deadline <= 0 {
		c.deadline = 4
	}
	c.cond = sync.NewCond(&c.mu)
	if c.opts.Logf == nil {
		c.opts.Logf = func(string, ...any) {}
	}

	for i := range keys {
		c.emit(experiment.Event{Kind: experiment.EventVariantQueued, Experiment: doc.Name,
			Variant: c.labels[i], Index: i, Variants: len(keys)})
	}

	conns, cleanup, err := c.dialWorkers(ctx)
	if err != nil {
		// A partial dial failure has already started subprocesses; close and
		// reap them instead of leaking workers blocked on their stdin.
		cleanup()
		return res, err
	}
	defer cleanup()
	if len(conns) == 0 {
		return res, fmt.Errorf("%w: set Workers (with Command), Connect or Conns", ErrNoWorkers)
	}

	// A canceled context unblocks every session: claims stop, and closing
	// the transports kicks workers out of blocking reads.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
			cleanup()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	workerErrs := make([]error, len(conns))
	for i, conn := range conns {
		wg.Add(1)
		go func(id int, conn io.ReadWriteCloser) {
			defer wg.Done()
			workerErrs[id] = c.serve(ctx, id, conn)
			if workerErrs[id] != nil {
				c.opts.Logf("fabric: worker %d: %v", id, workerErrs[id])
			}
			c.mu.Lock()
			c.cond.Broadcast() // a dead worker's lease may need re-issuing
			c.mu.Unlock()
		}(i, conn)
	}
	wg.Wait()

	c.accounting(len(conns))
	return c.assemble(ctx, workerErrs)
}

// leaseState tracks one variant through the sweep.
type leaseState int8

const (
	leasePending leaseState = iota
	leaseOut
	leaseDone
)

// coordinator is one Run invocation's shared state.
type coordinator struct {
	doc     spec.Experiment
	docJSON []byte
	keys    []string
	labels  []string
	opts    Options
	cache   *experiment.StateCache
	begun   time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	state   []leaseState
	rows    []experiment.Row
	errs    []error
	started []time.Time // lease grant time, per variant
	flagged []bool      // straggler already reported

	// deadline is the resolved straggler factor.
	deadline float64

	// Per-worker accounting.
	busy   []time.Duration
	leases []int

	// builds singleflights preparation across workers: the first worker to
	// miss a key owns its build; others wait for the owner's put.
	builds map[string]*buildState

	// wallSum/wallN feed the straggler threshold.
	wallSum time.Duration
	wallN   int

	emitMu sync.Mutex
}

// buildState is one delegated preparation build in flight.
type buildState struct {
	owner int
	ready chan struct{} // closed on put or owner death
	data  []byte        // nil after close means: owner died, retry
}

// dialWorkers establishes every transport: Conns as given, subprocesses via
// Command, TCP sessions via Connect.
func (c *coordinator) dialWorkers(ctx context.Context) ([]io.ReadWriteCloser, func(), error) {
	var conns []io.ReadWriteCloser
	var procs []*exec.Cmd
	// Once-guarded: the context-cancel goroutine and Run's deferred call may
	// both clean up, and exec.Cmd.Wait is not safe to call concurrently.
	var once sync.Once
	cleanup := func() {
		once.Do(func() {
			for _, conn := range conns {
				conn.Close()
			}
			for _, p := range procs {
				// CommandContext kills on context cancel; reap regardless.
				_ = p.Wait()
			}
		})
	}
	conns = append(conns, c.opts.Conns...)
	if c.opts.Workers > 0 && len(c.opts.Command) == 0 {
		return nil, cleanup, errors.New("fabric: Workers set without a worker Command")
	}
	for i := 0; i < c.opts.Workers; i++ {
		cmd := exec.CommandContext(ctx, c.opts.Command[0], c.opts.Command[1:]...)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, cleanup, fmt.Errorf("fabric: worker %d: %w", i, err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, cleanup, fmt.Errorf("fabric: worker %d: %w", i, err)
		}
		cmd.Stderr = c.opts.WorkerStderr
		if err := cmd.Start(); err != nil {
			return nil, cleanup, fmt.Errorf("fabric: starting worker %d: %w", i, err)
		}
		procs = append(procs, cmd)
		conns = append(conns, &procConn{in: stdin, out: stdout})
	}
	for _, addr := range c.opts.Connect {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, cleanup, fmt.Errorf("fabric: connecting %s: %w", addr, err)
		}
		conns = append(conns, conn)
	}
	return conns, cleanup, nil
}

// procConn adapts a subprocess's stdin/stdout pipe pair to one transport.
type procConn struct {
	in  io.WriteCloser
	out io.ReadCloser
}

func (p *procConn) Read(b []byte) (int, error)  { return p.out.Read(b) }
func (p *procConn) Write(b []byte) (int, error) { return p.in.Write(b) }
func (p *procConn) Close() error {
	p.in.Close()
	return p.out.Close()
}

// serve drives one worker session: handshake, then lease/collect until the
// grid is exhausted. Transport errors release the worker's lease for
// re-issue and end only this session.
func (c *coordinator) serve(ctx context.Context, id int, conn io.ReadWriteCloser) error {
	codec := NewCodec(conn, conn)
	if err := codec.Send(Msg{Type: MsgHello, Version: ProtoVersion,
		Spec: c.docJSON, SeriesBucket: int64(c.opts.SeriesBucket)}); err != nil {
		return err
	}
	ready, err := codec.Recv()
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if ready.Type != MsgReady {
		return &ProtocolError{Reason: fmt.Sprintf("expected ready, got %q", ready.Type)}
	}
	if ready.Version != ProtoVersion {
		return &ProtocolError{Reason: fmt.Sprintf("worker speaks protocol %d, want %d", ready.Version, ProtoVersion)}
	}
	if ready.Count != len(c.keys) || ready.Sum != KeyDigest(c.keys) {
		return &ProtocolError{Reason: fmt.Sprintf(
			"worker resolves %d variants (digest %s), coordinator %d (digest %s) — mismatched binaries?",
			ready.Count, ready.Sum, len(c.keys), KeyDigest(c.keys))}
	}

	for {
		idx, ok := c.claim(ctx, id)
		if !ok {
			_ = codec.Send(Msg{Type: MsgShutdown, Error: "sweep complete"})
			return nil
		}
		c.opts.Logf("fabric: worker %d ← variant %d (%s)", id, idx, c.labels[idx])
		if err := codec.Send(Msg{Type: MsgLease, Index: idx, Key: c.keys[idx]}); err != nil {
			c.release(idx, id)
			return err
		}
		if err := c.collect(ctx, id, idx, codec); err != nil {
			c.release(idx, id)
			return err
		}
	}
}

// claim hands out the lowest pending variant index, waiting while every
// remaining variant is leased to another worker (so a crashed worker's
// re-issued lease always finds a taker). It returns false when the grid is
// done or the context canceled.
func (c *coordinator) claim(ctx context.Context, id int) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return 0, false
		}
		outstanding := false
		for i, st := range c.state {
			switch st {
			case leasePending:
				c.state[i] = leaseOut
				c.started[i] = time.Now() //lint:wallclock straggler detection telemetry
				c.flagged[i] = false
				return i, true
			case leaseOut:
				outstanding = true
			}
		}
		if !outstanding {
			return 0, false
		}
		c.cond.Wait()
	}
}

// release returns a lease to the pending pool (worker death) and fails over
// any preparation builds the dead worker owned.
func (c *coordinator) release(idx, worker int) {
	c.mu.Lock()
	if c.state[idx] == leaseOut {
		c.state[idx] = leasePending
		c.opts.Logf("fabric: re-issuing variant %d (%s) after worker %d died", idx, c.labels[idx], worker)
	}
	c.failoverBuildsLocked(worker)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// failoverBuildsLocked abandons every preparation build the worker still
// owns. A failed or canceled local build never publishes a put, so without
// this the builds entry would outlive the lease: waiters would block forever
// on ready, and the owner itself would self-deadlock re-fetching the key in a
// later lease. Waiters see a closed channel with no data and retry, racing to
// become the next owner. Called with c.mu held, on lease completion and on
// worker death.
func (c *coordinator) failoverBuildsLocked(worker int) {
	for key, b := range c.builds {
		if b.owner == worker {
			close(b.ready)
			delete(c.builds, key)
		}
	}
}

// collect reads one lease's message stream — events, state fetches and
// rejects, puts — until its result or failure arrives.
func (c *coordinator) collect(ctx context.Context, id, idx int, codec *Codec) error {
	// served is the state the last fetch answered with: the only one this
	// lease may reject.
	var served []byte
	var servedKey string
	for {
		m, err := codec.Recv()
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgEvent:
			c.forwardEvent(m)
		case MsgFetch, MsgReject:
			if m.Type == MsgReject {
				if served == nil || m.Key != servedKey {
					return &ProtocolError{Reason: fmt.Sprintf("reject of state %q, which this lease was not served", m.Key)}
				}
				c.evict(id, m.Key, served, m.Error)
			}
			data, err := c.serveFetch(ctx, id, m.Key)
			if err != nil {
				return err
			}
			served, servedKey = data, m.Key
			reply := Msg{Type: MsgState, Key: m.Key, Miss: data == nil, Data: data}
			if err := codec.Send(reply); err != nil {
				return err
			}
		case MsgPut:
			c.handlePut(id, m)
		case MsgResult:
			if m.Index != idx || m.Row == nil {
				return &ProtocolError{Reason: fmt.Sprintf("result for variant %d during lease %d", m.Index, idx)}
			}
			c.complete(id, idx, *m.Row, nil, time.Duration(m.Wall))
			return nil
		case MsgFailed:
			if m.Index != idx {
				return &ProtocolError{Reason: fmt.Sprintf("failure for variant %d during lease %d", m.Index, idx)}
			}
			ferr := error(&workerVariantError{experiment: c.doc.Name,
				variant: c.labels[idx], index: idx, text: m.Error, panicked: m.Panic})
			c.complete(id, idx, experiment.Row{}, ferr, time.Duration(m.Wall))
			return nil
		default:
			return &ProtocolError{Reason: fmt.Sprintf("unexpected %q from worker", m.Type)}
		}
	}
}

// serveFetch answers a worker's state fetch: a cache hit serves the bytes; a
// miss delegates the build to the asking worker, singleflighted — workers
// asking for a key already being built wait for the owner's put, and an
// owner that dies mid-build hands ownership to the first retrying waiter.
func (c *coordinator) serveFetch(ctx context.Context, worker int, key string) ([]byte, error) {
	for {
		if data, ok := c.cache.Peek(key); ok {
			return data, nil
		}
		c.mu.Lock()
		b, inFlight := c.builds[key]
		if !inFlight {
			c.builds[key] = &buildState{owner: worker, ready: make(chan struct{})}
			c.mu.Unlock()
			c.opts.Logf("fabric: delegating preparation build to worker %d", worker)
			return nil, nil // miss: the worker builds and publishes
		}
		c.mu.Unlock()
		select {
		case <-b.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if b.data != nil {
			return b.data, nil
		}
		// The owner died before publishing; loop and contend for ownership.
	}
}

// evict drops a state the worker could not decode from the cache's memory
// and disk, unless a rebuild has already replaced it. The fetch that follows
// then misses and delegates the rebuild to this worker, so workers that ask
// meanwhile wait for its put rather than build too.
func (c *coordinator) evict(worker int, key string, served []byte, reason string) {
	evicted := c.cache.Evict(key, served)
	c.opts.Logf("fabric: worker %d rejected state %q (%s); evicted: %v", worker, key, reason, evicted)
}

// handlePut admits a worker-built state to the cache on its seal and
// releases any workers waiting on its build. A payload whose seal fails is
// dropped and the build failed over, exactly like an owner death.
func (c *coordinator) handlePut(worker int, m Msg) {
	err := c.cache.Put(m.Key, m.Data)
	if err != nil {
		c.opts.Logf("fabric: dropping state from worker %d: %v", worker, err)
	}
	c.mu.Lock()
	if b, ok := c.builds[m.Key]; ok {
		if err == nil {
			b.data = m.Data
		}
		close(b.ready)
		delete(c.builds, m.Key)
	}
	c.mu.Unlock()
}

// complete records a finished lease and its accounting, and emits the
// variant's terminal event.
func (c *coordinator) complete(worker, idx int, row experiment.Row, err error, wall time.Duration) {
	c.mu.Lock()
	c.state[idx] = leaseDone
	c.rows[idx] = row
	c.errs[idx] = err
	for len(c.busy) <= worker {
		c.busy = append(c.busy, 0)
		c.leases = append(c.leases, 0)
	}
	c.busy[worker] += wall
	c.leases[worker]++
	c.wallSum += wall
	c.wallN++
	// The lease is over: any build this worker still owns will never be
	// published (its put would have arrived before the result on the ordered
	// stream), so hand ownership to whoever asks next.
	c.failoverBuildsLocked(worker)
	c.checkStragglersLocked()
	c.cond.Broadcast()
	c.mu.Unlock()

	ev := experiment.Event{Kind: experiment.EventVariantDone, Experiment: c.doc.Name,
		Variant: c.labels[idx], Index: idx, Variants: len(c.keys), Wall: wall, Err: err}
	if err != nil {
		var wve *workerVariantError
		if errors.As(err, &wve) && wve.panicked {
			ev.Kind = experiment.EventVariantFailed
		}
	} else {
		r := row
		ev.Row = &r
	}
	c.emit(ev)
}

// checkStragglersLocked flags outstanding leases that have outlived the mean
// completed wall clock by the straggler factor — the sweeps' long tail made
// visible while it is still running. Called with c.mu held.
func (c *coordinator) checkStragglersLocked() {
	if c.wallN == 0 {
		return
	}
	mean := c.wallSum / time.Duration(c.wallN)
	if mean <= 0 {
		return
	}
	limit := time.Duration(float64(mean) * c.deadline)
	for i, st := range c.state {
		if st != leaseOut || c.flagged[i] {
			continue
		}
		if age := time.Since(c.started[i]); age > limit {
			c.flagged[i] = true
			c.opts.Logf("fabric: straggler: variant %d (%s) running %v, mean is %v",
				i, c.labels[i], age.Round(time.Millisecond), mean.Round(time.Millisecond))
		}
	}
}

// forwardEvent relays a worker's live event stream. Queue admission and
// terminal variant events are synthesized by the coordinator itself, so only
// the in-flight observations — prepare provenance — pass through.
func (c *coordinator) forwardEvent(m Msg) {
	switch m.Kind {
	case experiment.EventPrepareHit, experiment.EventPrepareMiss:
	default:
		return
	}
	c.emit(experiment.Event{Kind: m.Kind, Experiment: c.doc.Name, Variant: m.Variant,
		Index: m.Index, Variants: len(c.keys), CacheKey: m.Key, Wall: time.Duration(m.Wall)})
}

// emit delivers one event to the observer, serialized across sessions.
func (c *coordinator) emit(ev experiment.Event) {
	if c.opts.Observer == nil {
		return
	}
	c.emitMu.Lock()
	defer c.emitMu.Unlock()
	c.opts.Observer.OnEvent(ev)
}

// accounting logs each worker's share of the sweep.
func (c *coordinator) accounting(workers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for w := 0; w < workers; w++ {
		var busy time.Duration
		var n int
		if w < len(c.busy) {
			busy, n = c.busy[w], c.leases[w]
		}
		c.opts.Logf("fabric: worker %d: %d variants, busy %v", w, n, busy.Round(time.Millisecond))
	}
}

// assemble merges rows by grid position with the in-process Runner's exact
// semantics: rows in definition order up to the first variant that produced
// none; a cancellation reports the completed prefix under a typed
// *CanceledError, a failure reports the earliest failed variant's error.
func (c *coordinator) assemble(ctx context.Context, workerErrs []error) (experiment.Results, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := experiment.Results{Name: c.doc.Name}
	var err error
	for i := range c.keys {
		if c.state[i] != leaseDone {
			if ctx.Err() != nil {
				cause := context.Cause(ctx)
				err = &experiment.CanceledError{Experiment: c.doc.Name,
					Completed: len(res.Rows), Total: len(c.keys), Cause: cause}
			} else {
				err = fmt.Errorf("fabric: variant %d (%s) unfinished: no live workers: %w",
					i, c.labels[i], firstErr(workerErrs))
			}
			break
		}
		if c.errs[i] != nil {
			err = c.errs[i]
			break
		}
		res.Rows = append(res.Rows, c.rows[i])
	}
	c.emit(experiment.Event{Kind: experiment.EventExperimentDone, Experiment: c.doc.Name,
		Index: -1, Variants: len(c.keys), Wall: time.Since(c.begun), Err: err})
	return res, err
}

func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return errors.New("workers exited early")
}

// workerVariantError is a variant failure reported over the wire. The typed
// error chain does not cross process boundaries, so the worker's rendered
// message and its panic/error discrimination are what survive.
type workerVariantError struct {
	experiment, variant, text string
	index                     int
	panicked                  bool
}

func (e *workerVariantError) Error() string { return e.text }
