// Package osched implements the operating-system IO scheduler layer: it
// manages IO requests incoming from multiple simulated concurrent threads,
// maintains a pool of pending IOs, and decides — based on a customizable
// scheduling policy — which IOs to issue next to the SSD, bounded by a
// configurable number of outstanding IOs (the OS queue depth).
//
// Once the SSD completes an IO it notifies the OS, which activates the
// dispatching thread's callback; the thread can respond by issuing more IOs.
// That interrupt-driven loop is how the paper's thread layer drives workloads.
//
//eagletree:typederrors
package osched

import (
	"errors"
	"fmt"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
	"eagletree/internal/stats"
)

// ErrConfig wraps every Config.Validate failure.
var ErrConfig = errors.New("osched: invalid configuration")

// Device is the SSD-facing interface the OS dispatches to. The controller
// implements it; completions flow back through (*OS).Completed, which the
// device owner must wire to the controller's completion hook.
type Device interface {
	Submit(r *iface.Request)
}

// Capture observes every request submitted to the OS layer — the app-level
// IO stream, since only application threads submit here; the controller's
// internal traffic never crosses this boundary. trace.Capture implements it
// to record replayable block traces.
type Capture interface {
	Submitted(at sim.Time, r *iface.Request)
}

// Config parameterizes the OS layer.
type Config struct {
	// Policy orders the pending pool. Nil means FIFO.
	Policy Policy
	// QueueDepth bounds the IOs outstanding at the SSD. Zero means 32, the
	// common block-layer default.
	QueueDepth int
	// Trace, when non-nil, records submission and issue events for every
	// request passing through the OS layer.
	Trace *stats.Trace
	// Capture, when non-nil, observes every submission (block-trace
	// recording). Nil costs a single pointer check per IO.
	Capture Capture
}

// WithDefaults fills the zero Policy and QueueDepth with their defaults.
func (c *Config) WithDefaults() {
	if c.Policy == nil {
		c.Policy = &FIFO{}
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
}

// Validate reports configuration errors after defaults.
func (c *Config) Validate() error {
	if c.QueueDepth < 1 {
		return fmt.Errorf("%w: queue depth %d, must be >= 1", ErrConfig, c.QueueDepth)
	}
	return nil
}

// Stats aggregates OS-level counters.
type Stats struct {
	Submitted   uint64 // requests accepted from threads
	Issued      uint64 // requests dispatched to the SSD
	Completed   uint64 // completions delivered back
	MaxPending  int    // high-water mark of the pending pool
	MaxInFlight int    // high-water mark of SSD-outstanding IOs
}

// OS is the operating-system layer: per-thread IO submission, a pending pool
// ordered by the scheduling policy, and completion delivery to threads.
type OS struct {
	eng *sim.Engine
	dev Device
	cfg Config

	inFlight  int
	callbacks map[int]func(*iface.Request)
	pumpPend  bool
	pumpFn    func(any) // bound once so pumping never allocates
	stats     Stats
}

// New builds the OS layer over a device. Wire the controller's OnComplete to
// (*OS).Completed before running.
func New(eng *sim.Engine, dev Device, cfg Config) (*OS, error) {
	cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &OS{
		eng:       eng,
		dev:       dev,
		cfg:       cfg,
		callbacks: make(map[int]func(*iface.Request)),
	}
	o.pumpFn = func(any) {
		o.pumpPend = false
		o.dispatch()
	}
	return o, nil
}

// Policy returns the active scheduling policy.
func (o *OS) Policy() Policy { return o.cfg.Policy }

// QueueDepth returns the outstanding-IO bound.
func (o *OS) QueueDepth() int { return o.cfg.QueueDepth }

// SetCapture attaches c to observe every later submission, in place of
// Config.Capture: a capture can join a stack built (or restored) elsewhere.
func (o *OS) SetCapture(c Capture) { o.cfg.Capture = c }

// Stats returns OS-level counters.
func (o *OS) Stats() Stats { return o.stats }

// RestoreStats overwrites the OS-level counters, continuing a snapshotted
// run's accounting (high-water marks included). Queues must be empty — the
// snapshot layer only restores quiescent stacks.
func (o *OS) RestoreStats(s Stats) { o.stats = s }

// Pending returns the number of requests waiting in the OS pool.
func (o *OS) Pending() int { return o.cfg.Policy.Len() }

// InFlight returns the number of requests outstanding at the SSD.
func (o *OS) InFlight() int { return o.inFlight }

// SetCallback registers the completion callback for one thread. Completions
// of requests whose Thread field matches are delivered to fn.
func (o *OS) SetCallback(thread int, fn func(*iface.Request)) {
	o.callbacks[thread] = fn
}

// RemoveCallback unregisters a thread, e.g. when it finishes.
func (o *OS) RemoveCallback(thread int) { delete(o.callbacks, thread) }

// Submit accepts a request from a thread, stamps its submission time, pools
// it and arms the dispatch pump.
func (o *OS) Submit(r *iface.Request) {
	if r.Submitted == 0 {
		r.Submitted = o.eng.Now()
	}
	o.stats.Submitted++
	if o.cfg.Trace != nil {
		o.cfg.Trace.Record(o.eng.Now(), r.ID, stats.StageSubmitted, r)
	}
	if o.cfg.Capture != nil {
		o.cfg.Capture.Submitted(o.eng.Now(), r)
	}
	o.cfg.Policy.Push(r)
	if p := o.cfg.Policy.Len(); p > o.stats.MaxPending {
		o.stats.MaxPending = p
	}
	o.pump()
}

// Completed receives a finished request from the SSD. It frees an
// outstanding slot, re-pumps the dispatch loop, and delivers the completion
// to the dispatching thread. Wire this to the controller's OnComplete.
func (o *OS) Completed(r *iface.Request) {
	o.inFlight--
	o.stats.Completed++
	o.pump()
	if fn, ok := o.callbacks[r.Thread]; ok {
		fn(r)
	}
}

// pump coalesces dispatching to the tail of the current event, like a real
// block layer running its queue after request insertion or an interrupt.
func (o *OS) pump() {
	if o.pumpPend {
		return
	}
	o.pumpPend = true
	o.eng.ScheduleCall(o.eng.Now(), o.pumpFn, nil)
}

func (o *OS) dispatch() {
	for o.inFlight < o.cfg.QueueDepth {
		r := o.cfg.Policy.Pop(o.eng.Now())
		if r == nil {
			return
		}
		r.Issued = o.eng.Now()
		o.inFlight++
		o.stats.Issued++
		if o.cfg.Trace != nil {
			o.cfg.Trace.Record(o.eng.Now(), r.ID, stats.StageIssued, r)
		}
		if o.inFlight > o.stats.MaxInFlight {
			o.stats.MaxInFlight = o.inFlight
		}
		o.dev.Submit(r)
	}
}
