// Package workload is the application layer of the simulated IO stack: a
// programming framework giving users absolute control over the workload.
//
// A Thread provides two methods, Init and OnComplete — the paper's init() and
// call_back() — and may issue any number of IOs from either. The Runner owns
// thread lifecycle: threads can depend on other threads, so device
// preparation (writing the whole logical space sequentially and/or randomly
// before measuring, as uFLIP prescribes) is expressed as dependencies, and
// measurement starts only when preparation finishes.
//
//eagletree:typederrors
package workload

import (
	"errors"
	"fmt"

	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/sim"
)

// Errors wrapped by the workload package's exported API.
var (
	// ErrConfig wraps every invalid thread or replay configuration.
	ErrConfig = errors.New("workload: invalid configuration")
	// ErrStateMismatch wraps every snapshot-restore precondition failure.
	ErrStateMismatch = errors.New("workload: snapshot does not match runner state")
)

// Thread is one simulated concurrent application. Init is called by the OS
// when the thread starts; OnComplete is triggered every time an IO
// originating from the thread completes. Within both, the thread may issue
// any number of new IOs through the Ctx. The request OnComplete receives is
// recycled once it returns: copy the fields you need, do not keep the
// pointer.
type Thread interface {
	Init(ctx *Ctx)
	OnComplete(ctx *Ctx, r *iface.Request)
}

// Ctx is a thread's window onto the stack: it issues IOs to the OS,
// publishes open-interface messages, draws deterministic randomness, and
// declares the thread finished.
type Ctx struct {
	runner *Runner
	entry  *entry
	rng    *sim.RNG
}

// ID returns the thread's identifier (stamped on every request it issues).
func (c *Ctx) ID() int { return c.entry.id }

// Now returns the current virtual time.
func (c *Ctx) Now() sim.Time { return c.runner.eng.Now() }

// RNG returns the thread's private deterministic random source.
func (c *Ctx) RNG() *sim.RNG { return c.rng }

// InFlight returns how many of this thread's IOs are not yet completed.
func (c *Ctx) InFlight() int { return c.entry.inFlight }

// Issued returns how many IOs the thread has submitted so far.
func (c *Ctx) Issued() uint64 { return c.entry.issued }

// Submit issues one IO with explicit tags and returns the request. The
// Runner recycles requests: the one returned here, which OnComplete later
// receives, is valid only until that OnComplete returns. Copy the fields you
// need; do not keep the pointer.
func (c *Ctx) Submit(t iface.ReqType, lpn iface.LPN, tags iface.Tags) *iface.Request {
	if c.entry.finished {
		panic(fmt.Sprintf("workload: thread %d submitted an IO after finishing", c.entry.id))
	}
	c.runner.nextID++
	r := c.runner.newRequest()
	*r = iface.Request{
		ID:        c.runner.nextID,
		Type:      t,
		LPN:       lpn,
		Source:    iface.SourceApp,
		Thread:    c.entry.id,
		Tags:      tags,
		Submitted: c.runner.eng.Now(),
	}
	c.entry.inFlight++
	c.entry.issued++
	c.runner.os.Submit(r)
	return r
}

// Read issues an untagged read.
func (c *Ctx) Read(lpn iface.LPN) *iface.Request { return c.Submit(iface.Read, lpn, iface.Tags{}) }

// Write issues an untagged write.
func (c *Ctx) Write(lpn iface.LPN) *iface.Request { return c.Submit(iface.Write, lpn, iface.Tags{}) }

// Trim issues a deallocation hint.
func (c *Ctx) Trim(lpn iface.LPN) *iface.Request { return c.Submit(iface.Trim, lpn, iface.Tags{}) }

// Publish sends a message on the open-interface bus. It reports false when
// the bus is locked (block-device mode) or nothing subscribed.
func (c *Ctx) Publish(m iface.Message) bool { return c.runner.bus.Publish(m) }

// Schedule runs fn after d of virtual time — the timer facility open-loop
// workloads (trace replay, think times, periodic bursts) pace themselves
// with. A pending timer keeps the thread alive like an in-flight IO does;
// timers armed by a thread that has since finished are discarded. Pass a
// callback bound once (a method value kept in a field): the timer record
// itself is recycled, so arming one allocates nothing.
func (c *Ctx) Schedule(d sim.Duration, fn func(*Ctx)) {
	if c.entry.finished {
		panic(fmt.Sprintf("workload: thread %d scheduled a timer after finishing", c.entry.id))
	}
	if d < 0 {
		d = 0
	}
	c.entry.timers++
	t := c.runner.newTimer()
	t.ctx, t.fn = c, fn
	c.runner.eng.ScheduleCall(c.runner.eng.Now().Add(d), c.runner.timerFn, t)
}

// timer is one armed Ctx.Schedule callback. The Runner recycles it as soon
// as it fires.
type timer struct {
	ctx *Ctx
	fn  func(*Ctx)
}

// fireTimer is the engine callback of every Ctx.Schedule timer, bound once
// in NewRunner.
//
//eagletree:hotpath
func (r *Runner) fireTimer(arg any) {
	t := arg.(*timer)
	c, fn := t.ctx, t.fn
	r.freeTimer(t)
	c.entry.timers--
	if c.entry.finished {
		return
	}
	fn(c)
	// Same rule as launch: a thread with nothing in flight, no timers
	// pending and no finish request can never be woken again — treat it as
	// finished rather than hanging its dependents.
	if c.entry.inFlight == 0 && c.entry.timers == 0 && !c.entry.finishReq {
		c.Finish()
	}
}

// Finish declares the thread done. Pending IOs still complete (and still
// reach OnComplete); once the last one drains, dependent threads start.
// Finishing twice is a no-op.
func (c *Ctx) Finish() {
	if c.entry.finishReq {
		return
	}
	c.entry.finishReq = true
	c.runner.maybeFinalize(c.entry)
}

// Handle names a registered thread, primarily for expressing dependencies.
type Handle struct {
	entry *entry
}

// ID returns the thread id the handle refers to.
func (h *Handle) ID() int { return h.entry.id }

// Done reports whether the thread has finished and drained.
func (h *Handle) Done() bool { return h.entry.finished }

type entry struct {
	id         int
	t          Thread
	ctx        *Ctx
	deps       int // unfinished dependencies
	dependents []*entry
	started    bool
	finishReq  bool
	finished   bool
	inFlight   int
	timers     int // armed Ctx.Schedule timers not yet fired
	issued     uint64
}

// Runner owns the thread layer: registration, dependency-ordered startup,
// and completion routing from the OS back to threads.
type Runner struct {
	eng    *sim.Engine
	os     *osched.OS
	bus    *iface.Bus
	rng    *sim.RNG
	nextID uint64
	idBase int // thread ids start here (continuation of a snapshotted run)

	entries []*entry
	active  int

	// Free lists: requests come back once their OnComplete has returned,
	// timer records once they fire, so a steady-state workload allocates
	// neither per IO nor per timer.
	reqFree   []*iface.Request
	timerFree []*timer
	timerFn   func(any) // fireTimer, bound once

	// OnAllDone, if set, fires when the last registered thread finishes.
	OnAllDone func()
}

// NewRunner builds a thread runner over the OS layer. The seed determines
// every thread's private RNG, so (workload, seed) fully fixes the IO trace.
func NewRunner(eng *sim.Engine, os *osched.OS, bus *iface.Bus, seed uint64) *Runner {
	r := &Runner{eng: eng, os: os, bus: bus, rng: sim.NewRNG(seed)}
	r.timerFn = r.fireTimer
	return r
}

// Add registers a thread that starts when every dependency has finished
// (immediately at Start when none are given). Nil handles are ignored, so a
// possibly-absent barrier can be passed through unconditionally.
func (r *Runner) Add(t Thread, deps ...*Handle) *Handle {
	e := &entry{id: r.idBase + len(r.entries), t: t}
	e.ctx = &Ctx{runner: r, entry: e, rng: r.rng.Split()}
	for _, d := range deps {
		if d == nil || d.entry.finished {
			continue
		}
		e.deps++
		d.entry.dependents = append(d.entry.dependents, e)
	}
	r.entries = append(r.entries, e)
	r.active++
	return &Handle{entry: e}
}

// Start launches every dependency-free thread. Call once, before running the
// engine.
func (r *Runner) Start() {
	for _, e := range r.entries {
		if e.deps == 0 && !e.started {
			r.launch(e)
		}
	}
}

// Active returns how many registered threads have not finished.
func (r *Runner) Active() int { return r.active }

// RunnerState is the runner's serializable state for device snapshots: the
// RNG origin every future thread's private stream derives from, the request
// id counter, and where thread ids continue. Thread objects themselves are
// not serialized — snapshots are taken when every thread has finished.
type RunnerState struct {
	RNG          [4]uint64
	NextReqID    uint64
	NextThreadID int
}

// State captures the runner's continuation state. It is only meaningful when
// every registered thread has finished (Done reports true).
func (r *Runner) State() RunnerState {
	return RunnerState{
		RNG:          r.rng.State(),
		NextReqID:    r.nextID,
		NextThreadID: r.idBase + len(r.entries),
	}
}

// RestoreState primes a fresh runner to continue a snapshotted run: threads
// added from here on get the same ids, private RNG streams and request ids
// they would have gotten had the original runner kept going.
func (r *Runner) RestoreState(st RunnerState) error {
	if len(r.entries) > 0 {
		return fmt.Errorf("%w: restoring a runner that already has %d threads", ErrStateMismatch, len(r.entries))
	}
	r.rng.SetState(st.RNG)
	r.nextID = st.NextReqID
	r.idBase = st.NextThreadID
	return nil
}

// Done reports whether every registered thread has finished.
func (r *Runner) Done() bool { return r.active == 0 }

func (r *Runner) launch(e *entry) {
	e.started = true
	r.os.SetCallback(e.id, func(req *iface.Request) { r.deliver(e, req) })
	// Init runs inside the event loop so threads observe a consistent clock
	// and so Start can be called before the engine runs.
	r.eng.Schedule(r.eng.Now(), func() {
		e.t.Init(e.ctx)
		// A thread that issues nothing from Init, arms no timer and never
		// calls Finish would hang its dependents; treat "no IOs, no timers,
		// no finish request" as finished, matching an empty init() body.
		if e.inFlight == 0 && e.timers == 0 && !e.finishReq {
			e.ctx.Finish()
		}
	})
}

// deliver hands a completed request to its thread and then recycles it:
// nothing below the Runner reads a request after delivering it here.
//
//eagletree:hotpath
func (r *Runner) deliver(e *entry, req *iface.Request) {
	e.inFlight--
	if !e.finished {
		e.t.OnComplete(e.ctx, req)
	}
	r.maybeFinalize(e)
	r.freeRequest(req)
}

// poisonRecycled makes freeRequest and freeTimer overwrite every recycled
// object with values no live one can hold, so that a read after recycling
// changes behavior instead of passing silently. Only tests set it (through
// export_test.go).
var poisonRecycled bool

var poisonedRequest = iface.Request{
	ID:         ^uint64(0),
	Type:       iface.ReqType(-1),
	LPN:        -1,
	Source:     iface.Source(-1),
	Thread:     -1,
	Submitted:  sim.Never,
	Issued:     sim.Never,
	Dispatched: sim.Never,
	Completed:  sim.Never,
}

func poisonedTimer(*Ctx) { panic("workload: a recycled timer record fired") }

// newRequest takes a request from the free list or allocates one. The
// caller overwrites every field.
//
//eagletree:hotpath
func (r *Runner) newRequest() *iface.Request {
	n := len(r.reqFree)
	if n == 0 {
		return &iface.Request{}
	}
	req := r.reqFree[n-1]
	r.reqFree[n-1] = nil
	r.reqFree = r.reqFree[:n-1]
	return req
}

// freeRequest returns a delivered request to the free list.
//
//eagletree:hotpath
func (r *Runner) freeRequest(req *iface.Request) {
	if poisonRecycled {
		*req = poisonedRequest
	}
	r.reqFree = append(r.reqFree, req)
}

// newTimer takes a timer record from the free list or allocates one.
//
//eagletree:hotpath
func (r *Runner) newTimer() *timer {
	n := len(r.timerFree)
	if n == 0 {
		return &timer{}
	}
	t := r.timerFree[n-1]
	r.timerFree[n-1] = nil
	r.timerFree = r.timerFree[:n-1]
	return t
}

// freeTimer returns a fired timer record to the free list, dropping its
// references.
//
//eagletree:hotpath
func (r *Runner) freeTimer(t *timer) {
	*t = timer{}
	if poisonRecycled {
		t.fn = poisonedTimer
	}
	r.timerFree = append(r.timerFree, t)
}

func (r *Runner) maybeFinalize(e *entry) {
	if !e.finishReq || e.finished || e.inFlight > 0 {
		return
	}
	e.finished = true
	r.active--
	r.os.RemoveCallback(e.id)
	for _, dep := range e.dependents {
		dep.deps--
		if dep.deps == 0 && !dep.started {
			r.launch(dep)
		}
	}
	if r.active == 0 && r.OnAllDone != nil {
		r.OnAllDone()
	}
}
