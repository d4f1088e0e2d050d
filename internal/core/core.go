// Package core assembles the full EagleTree stack — event engine, open
// interface bus, statistics, SSD controller, OS scheduler and thread runner —
// from one configuration, and snapshots the metrics experiments report.
//
// The stack operates entirely in virtual time: Run drives the event loop
// until every registered thread finishes, and a (Config, Seed) pair fully
// determines the resulting IO trace.
//
//eagletree:canonical
//eagletree:typederrors
package core

import (
	"context"
	"errors"
	"fmt"

	"eagletree/internal/controller"
	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/sim"
	"eagletree/internal/stats"
	"eagletree/internal/workload"
)

// Errors wrapped by the stack's exported API, per the typed-error contract.
var (
	// ErrConfig wraps every stack-assembly configuration failure.
	ErrConfig = errors.New("core: invalid configuration")
	// ErrNotQuiescent wraps every Snapshot precondition failure — the stack
	// still holds in-flight work that a snapshot would drop — and every
	// RunCtx whose event loop drained with threads still active.
	ErrNotQuiescent = errors.New("core: stack not quiescent")
	// ErrSnapshotMismatch wraps every structural mismatch between a
	// snapshot and the configuration it is restored under.
	ErrSnapshotMismatch = errors.New("core: snapshot does not match configuration")
)

// Config configures every layer of the stack.
type Config struct {
	// Controller configures the SSD: geometry, timings, FTL, GC, WL and the
	// device-side scheduler. Its OnComplete field is owned by the stack.
	Controller controller.Config
	// OS configures the operating-system scheduler layer.
	OS osched.Config
	// Seed determines all workload randomness. Zero means 1.
	Seed uint64
	// SeriesBucket enables a completion time series with this bucket width.
	SeriesBucket sim.Duration
	// TraceCap enables IO tracing with this capacity (number of records).
	TraceCap int
	// LockBus puts the open-interface bus in block-device mode: every
	// message published by threads is dropped — the "red lock".
	LockBus bool
}

// Stack is one assembled simulation: an SSD under an OS under a workload.
type Stack struct {
	Engine     *sim.Engine
	Bus        *iface.Bus
	Stats      *stats.Collector
	Controller *controller.Controller
	OS         *osched.OS
	Runner     *workload.Runner

	cfg Config

	// measurement epoch baselines, captured by MarkMeasurement
	baseArray       flashCountersSnapshot
	baseController  controller.Counters
	baseReliability controller.Reliability
}

type flashCountersSnapshot struct {
	reads, writes, erases, copybacks uint64
}

// New assembles a stack. The controller's OnComplete is wired to the OS; do
// not set it in the config.
func New(cfg Config) (*Stack, error) { return build(cfg, nil) }

// build assembles a stack over an erased device, or over the one ctl records.
func build(cfg Config, ctl *controller.State) (*Stack, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Controller.OnComplete != nil {
		return nil, fmt.Errorf("%w: Controller.OnComplete is owned by the stack", ErrConfig)
	}
	s := &Stack{
		Engine: sim.NewEngine(),
		Bus:    iface.NewBus(),
		cfg:    cfg,
	}
	s.Bus.SetLocked(cfg.LockBus)
	s.Stats = stats.NewCollector(cfg.SeriesBucket, cfg.TraceCap)

	ctlCfg := cfg.Controller
	ctlCfg.OnComplete = func(r *iface.Request) { s.OS.Completed(r) }
	var err error
	if s.Controller, err = controller.Restore(s.Engine, s.Bus, s.Stats, ctlCfg, ctl); err != nil {
		return nil, err
	}

	osCfg := cfg.OS
	osCfg.Trace = s.Stats.Trace() // nil unless TraceCap enabled tracing
	os, err := osched.New(s.Engine, s.Controller, osCfg)
	if err != nil {
		return nil, err
	}
	s.OS = os
	s.Runner = workload.NewRunner(s.Engine, os, s.Bus, cfg.Seed)
	return s, nil
}

// Config returns the configuration the stack was built from.
func (s *Stack) Config() Config { return s.cfg }

// LogicalPages returns the SSD's exported logical capacity in pages.
func (s *Stack) LogicalPages() int { return s.Controller.LogicalPages() }

// Add registers a workload thread, optionally dependent on other threads.
func (s *Stack) Add(t workload.Thread, deps ...*workload.Handle) *workload.Handle {
	return s.Runner.Add(t, deps...)
}

// AddBarrier registers a no-IO thread dependent on deps that marks the
// measurement epoch when it runs: statistics reset and counter baselines are
// captured, so preparation traffic does not pollute results (the paper's
// §2.3 methodology). Make measured threads depend on the returned handle.
func (s *Stack) AddBarrier(deps ...*workload.Handle) *workload.Handle {
	return s.Runner.Add(&workload.Func{F: func(ctx *workload.Ctx) {
		s.MarkMeasurement()
	}}, deps...)
}

// MarkMeasurement resets statistics and captures counter baselines; Report
// values cover only traffic after this point.
func (s *Stack) MarkMeasurement() {
	s.Stats.Reset(s.Engine.Now())
	ac := s.Controller.Array().Counters()
	s.baseArray = flashCountersSnapshot{reads: ac.Reads, writes: ac.Writes, erases: ac.Erases, copybacks: ac.Copybacks}
	s.baseController = s.Controller.Counters()
	s.baseReliability = s.Controller.Reliability()
}

// Run starts every dependency-free thread and drives the event loop until
// the simulation drains. It returns the final virtual time.
func (s *Stack) Run() sim.Time {
	s.Runner.Start()
	t := s.Engine.RunUntilIdle()
	return t
}

// RunCtx drives the loop like Run but honors context cancellation: the event
// loop polls ctx every few thousand events and abandons the simulation when
// it is canceled, returning ctx's error unwrapped. A context that can never
// be canceled takes the exact Run path; an uncanceled run fires the
// identical event sequence either way, so results are bit-identical to Run.
//
// A loop that drains with threads still active returns ErrNotQuiescent,
// joined with the controller's Health verdict when it has one: a device whose
// free pool was exhausted by block retirement satisfies
// errors.Is(err, controller.ErrDeviceWornOut), not just a generic deadlock.
func (s *Stack) RunCtx(ctx context.Context) (sim.Time, error) {
	var t sim.Time
	if ctx.Done() == nil {
		t = s.Run()
	} else {
		if err := ctx.Err(); err != nil {
			return s.Engine.Now(), err
		}
		s.Runner.Start()
		var interrupted bool
		t, interrupted = s.Engine.RunInterruptible(0, func() bool { return ctx.Err() != nil })
		if interrupted {
			return t, ctx.Err()
		}
	}
	if s.Runner.Done() {
		return t, nil
	}
	if herr := s.Controller.Health(); herr != nil {
		return t, fmt.Errorf("%w: %d threads never finished: %w", ErrNotQuiescent, s.Runner.Active(), herr)
	}
	return t, fmt.Errorf("%w: %d threads never finished (workload deadlock)", ErrNotQuiescent, s.Runner.Active())
}

// RunUntil drives the loop only to the given horizon (open-ended workloads).
func (s *Stack) RunUntil(horizon sim.Time) sim.Time {
	s.Runner.Start()
	return s.Engine.Run(horizon)
}
