package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"eagletree/internal/core"
	"eagletree/internal/snapshot"
)

// ErrCanceled reports a run cut short by its context. Errors returned for
// canceled runs are *CanceledError values wrapping it, so callers test with
// errors.Is(err, ErrCanceled) and inspect details with errors.As.
var ErrCanceled = errors.New("experiment: run canceled")

// ErrNoVariants reports a definition with nothing to run.
var ErrNoVariants = errors.New("experiment: definition has no variants")

// ErrUnknownEventKind reports an event-kind value or name outside the
// declared set — a stream produced by a newer binary, usually.
var ErrUnknownEventKind = errors.New("experiment: unknown event kind")

// CanceledError is the typed error of a canceled run: the partial Results
// returned alongside it hold the first Completed variants' rows — a prefix,
// in definition order, bit-identical to the same prefix of an uncancelled
// run. It wraps both ErrCanceled and the context's own error.
type CanceledError struct {
	// Experiment is the definition's name.
	Experiment string
	// Completed is how many leading variants finished (the partial row count).
	Completed int
	// Total is the definition's variant count.
	Total int
	// Cause is the context's error (context.Canceled or DeadlineExceeded).
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("experiment %q: canceled after %d of %d variants: %v",
		e.Experiment, e.Completed, e.Total, e.Cause)
}

// Unwrap exposes both the package sentinel and the context cause.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// VariantError is a variant whose execution panicked — a crashing workload
// hook, a bug in a component under test. The runner recovers the panic,
// isolates it to the variant, and completes the rest of the sweep; a
// *VariantError then stands in for the variant's row. Panic holds the
// recovered value and Stack the goroutine stack at the point of the panic.
type VariantError struct {
	// Experiment is the definition's name.
	Experiment string
	// Variant is the failed variant's label.
	Variant string
	// Index is the variant's position in definition order.
	Index int
	// Panic is the recovered panic value.
	Panic any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *VariantError) Error() string {
	return fmt.Sprintf("experiment %q variant %q: panic: %v", e.Experiment, e.Variant, e.Panic)
}

// EventKind discriminates runner events.
type EventKind int

const (
	// EventVariantQueued is emitted once per variant when the run admits it,
	// in definition order, before any variant executes.
	EventVariantQueued EventKind = iota
	// EventPrepareHit reports that the variant's declared preparation was
	// served from the snapshot cache (memory or disk).
	EventPrepareHit
	// EventPrepareMiss reports that the variant's declared preparation had to
	// age a device from scratch (the result is cached for later variants).
	EventPrepareMiss
	// EventVariantDone reports one variant's completion; Row carries its
	// result (nil when the variant failed — Err holds why).
	EventVariantDone
	// EventVariantCanceled reports a variant that produced no row: aborted
	// mid-simulation or never started, because the context was canceled or an
	// earlier variant's failure stopped the sequential loop.
	EventVariantCanceled
	// EventVariantFailed reports a variant whose execution panicked; Err holds
	// the *VariantError with the recovered value and stack. The sweep isolates
	// the crash and keeps running the remaining variants.
	EventVariantFailed
	// EventExperimentDone is the terminal event: the whole run finished,
	// failed (Err holds the earliest failure) or was canceled.
	EventExperimentDone
)

func (k EventKind) String() string {
	switch k {
	case EventVariantQueued:
		return "variant-queued"
	case EventPrepareHit:
		return "prepare-hit"
	case EventPrepareMiss:
		return "prepare-miss"
	case EventVariantDone:
		return "variant-done"
	case EventVariantCanceled:
		return "variant-canceled"
	case EventVariantFailed:
		return "variant-failed"
	case EventExperimentDone:
		return "experiment-done"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// MarshalText serializes the kind by name, so event streams crossing a
// process boundary (the JSON headers of the distributed sweep fabric's
// frames) stay readable and stable even if the iota order ever changes.
func (k EventKind) MarshalText() ([]byte, error) {
	s := k.String()
	if _, err := ParseEventKind(s); err != nil {
		return nil, fmt.Errorf("cannot marshal %s: %w", s, ErrUnknownEventKind)
	}
	return []byte(s), nil
}

// UnmarshalText parses a kind name produced by MarshalText.
func (k *EventKind) UnmarshalText(text []byte) error {
	kind, err := ParseEventKind(string(text))
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// ParseEventKind maps an event-kind name back to its value.
func ParseEventKind(s string) (EventKind, error) {
	for k := EventVariantQueued; k <= EventExperimentDone; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownEventKind, s)
}

// Event is one observation of a running experiment. Events stream to the
// Options.Observer as the run executes: every variant gets exactly one
// EventVariantQueued and exactly one of EventVariantDone, EventVariantFailed
// or EventVariantCanceled, declared preparation gets one EventPrepareHit or
// EventPrepareMiss per variant, and the run closes with one
// EventExperimentDone.
type Event struct {
	Kind EventKind
	// Experiment is the definition's name.
	Experiment string
	// Variant is the variant's label ("" for EventExperimentDone).
	Variant string
	// Index is the variant's position in definition order (-1 for
	// EventExperimentDone).
	Index int
	// Variants is the definition's total variant count.
	Variants int
	// CacheKey is the snapshot-cache key (prepare events only) — the cache
	// provenance of the variant's starting device state.
	CacheKey string
	// Wall is real time spent: the preparation fetch/build for prepare
	// events, the variant's execution for EventVariantDone, the whole run for
	// EventExperimentDone.
	Wall time.Duration
	// Err is the variant's failure (EventVariantDone) or the run's terminal
	// error (EventExperimentDone); nil on success.
	Err error
	// Row is the completed row (EventVariantDone on success only). It is a
	// private copy; observers may retain it.
	Row *Row
}

// Observer receives runner events. OnEvent is called serially — never
// concurrently — but from worker goroutines, in completion order; events for
// one variant are ordered, events of different variants interleave under the
// parallel runner.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }

// MultiObserver fans one event stream out to every given observer, in order;
// nils are skipped. It keeps the runner's serialization guarantee — each
// observer sees the same serial stream.
func MultiObserver(obs ...Observer) Observer {
	live := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

func (m multiObserver) OnEvent(ev Event) {
	for _, o := range m {
		o.OnEvent(ev)
	}
}

// Runner executes experiments: one independent simulation per variant,
// fanned out over a bounded worker pool, with context cancellation and an
// event stream. The zero-value Options give sequential-identical results on
// GOMAXPROCS workers with a private snapshot cache.
type Runner struct {
	opts Options
}

// New returns a Runner with the given options.
func New(opts Options) *Runner { return &Runner{opts: opts} }

// Run executes the experiment under ctx: one independent simulation per
// variant, results in definition order, bit-identical to a sequential run
// regardless of worker count.
//
// Cancellation is honored mid-sweep: unstarted variants are skipped,
// in-flight simulations abandon within a few thousand events, and workers
// drain deterministically. The returned Results then carry the completed
// prefix of rows — identical, bit for bit, to the same prefix of an
// uncancelled run — alongside a *CanceledError wrapping ErrCanceled.
func (r *Runner) Run(ctx context.Context, def Definition) (Results, error) {
	res := Results{Name: def.Name}
	if len(def.Variants) == 0 {
		return res, fmt.Errorf("%w: %q", ErrNoVariants, def.Name)
	}
	workers := r.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(def.Variants) {
		workers = len(def.Variants)
	}
	run := r.newRunState(def)
	for i, v := range def.Variants {
		run.emit(Event{Kind: EventVariantQueued, Experiment: def.Name,
			Variant: v.Label, Index: i, Variants: len(def.Variants)})
	}

	if workers == 1 {
		run.sequential(ctx)
	} else {
		run.parallel(ctx, workers)
	}

	// Assemble in definition order, stopping at the first variant that
	// produced no row: rows before it, nothing after. A failure reports the
	// variant's error exactly as the sequential loop always has; a
	// cancellation reports a *CanceledError with the completed prefix.
	var err error
	for i := range def.Variants {
		if run.canceled[i] {
			cause := context.Cause(ctx)
			if cause == nil {
				cause = context.Canceled
			}
			err = &CanceledError{Experiment: def.Name, Completed: len(res.Rows),
				Total: len(def.Variants), Cause: cause}
			break
		}
		if run.errs[i] != nil {
			err = run.errs[i]
			break
		}
		res.Rows = append(res.Rows, run.rows[i])
	}
	run.emit(Event{Kind: EventExperimentDone, Experiment: def.Name, Index: -1,
		Variants: len(def.Variants), Wall: time.Since(run.started), Err: err})
	return res, err
}

// newRunState is one Run's or RunVariant's bookkeeping. Prepared states, and
// their decoded form, outlive it only in a cache the caller provided.
func (r *Runner) newRunState(def Definition) *runState {
	cache := r.opts.Cache
	if r.opts.NoPrepareCache {
		cache = nil
	} else if cache == nil {
		cache = NewStateCache("")
	}
	return &runState{
		def:      def,
		cache:    cache,
		observer: r.opts.Observer,
		started:  time.Now(), //lint:wallclock run wall-time telemetry, never canonical
		rows:     make([]Row, len(def.Variants)),
		errs:     make([]error, len(def.Variants)),
		canceled: make([]bool, len(def.Variants)),
	}
}

// runState is one Run invocation's bookkeeping, shared by its workers.
type runState struct {
	def      Definition
	cache    *StateCache
	observer Observer
	started  time.Time

	rows     []Row
	errs     []error
	canceled []bool

	emitMu sync.Mutex
}

// emit delivers one event to the observer, serialized across workers.
func (rs *runState) emit(ev Event) {
	if rs.observer == nil {
		return
	}
	rs.emitMu.Lock()
	defer rs.emitMu.Unlock()
	rs.observer.OnEvent(ev)
}

// sequential runs variants one by one, stopping at the first failure or
// cancellation; the remaining variants are marked canceled. A panicking
// variant (*VariantError) is the exception: the crash is isolated and the
// loop keeps sweeping, matching the parallel runner's semantics.
func (rs *runState) sequential(ctx context.Context) {
	for i, v := range rs.def.Variants {
		if ctx.Err() != nil {
			rs.cancelFrom(i)
			return
		}
		if !rs.runOne(ctx, i, v) {
			rs.cancelFrom(i + 1)
			return
		}
		if err := rs.errs[i]; err != nil {
			var ve *VariantError
			if !errors.As(err, &ve) {
				rs.cancelFrom(i + 1)
				return
			}
		}
	}
}

// cancelFrom marks every variant from i on as canceled.
func (rs *runState) cancelFrom(i int) {
	for ; i < len(rs.def.Variants); i++ {
		rs.markCanceled(i)
	}
}

// parallel fans variants over the worker pool. Workers keep claiming after
// another variant fails (matching the historical parallel semantics — the
// earliest failure is still what Run reports) but stop simulating once the
// context is canceled, marking every remaining claim canceled instead.
func (rs *runState) parallel(ctx context.Context, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rs.def.Variants) {
					return
				}
				if ctx.Err() != nil {
					rs.markCanceled(i)
					continue
				}
				rs.runOne(ctx, i, rs.def.Variants[i])
			}
		}()
	}
	wg.Wait()
}

// runOne executes variant i, records its outcome and emits its terminal
// event. It reports false when the variant was canceled mid-run.
func (rs *runState) runOne(ctx context.Context, i int, v Variant) bool {
	start := time.Now() //lint:wallclock per-variant wall-time telemetry
	row, err := rs.runVariantSafe(ctx, i, v)
	if err != nil && wasCanceled(err) {
		rs.markCanceled(i)
		return false
	}
	rs.rows[i], rs.errs[i] = row, err
	ev := Event{Kind: EventVariantDone, Experiment: rs.def.Name, Variant: v.Label,
		Index: i, Variants: len(rs.def.Variants), Wall: time.Since(start), Err: err}
	var ve *VariantError
	if errors.As(err, &ve) {
		ev.Kind = EventVariantFailed
	}
	if err == nil {
		r := row
		ev.Row = &r
	}
	rs.emit(ev)
	return true
}

// runVariantSafe executes runVariant with panic isolation: a panicking
// variant — a crashing workload hook, a bug in a component under test —
// becomes a *VariantError instead of tearing down the whole sweep (and,
// under the parallel runner, the process).
func (rs *runState) runVariantSafe(ctx context.Context, i int, v Variant) (row Row, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &VariantError{Experiment: rs.def.Name, Variant: v.Label, Index: i,
				Panic: p, Stack: debug.Stack()}
		}
	}()
	return rs.runVariant(ctx, i, v)
}

// markCanceled records and reports a variant that will produce no row.
func (rs *runState) markCanceled(i int) {
	rs.canceled[i] = true
	rs.emit(Event{Kind: EventVariantCanceled, Experiment: rs.def.Name,
		Variant: rs.def.Variants[i].Label, Index: i, Variants: len(rs.def.Variants)})
}

// wasCanceled distinguishes a context-abandoned simulation from a failure.
func wasCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runVariant builds and drives one variant's stack to completion.
//
// Variants with declared preparation run in two phases: the preparation
// workload runs to a full drain on a stack built from the normalized
// preparation config (shared across variants and cached as an encoded
// snapshot), then the measured workload runs on a stack restored from that
// snapshot under the variant's full config. Restoration carries the engine
// clock, RNG lineage and thread/request id sequences, so a cache hit and a
// fresh preparation produce bit-identical rows.
func (rs *runState) runVariant(ctx context.Context, i int, v Variant) (Row, error) {
	def := rs.def
	cfg := def.Base()
	if def.SeriesBucket > 0 {
		cfg.SeriesBucket = def.SeriesBucket
	}
	if v.Mutate != nil {
		v.Mutate(&cfg)
	}
	spec := def.prepFor(v)
	var stack *core.Stack
	if spec.None() {
		st, err := core.New(cfg)
		if err != nil {
			return Row{}, fmt.Errorf("experiment %q variant %q: %w", def.Name, v.Label, err)
		}
		stack = st
	} else {
		ds, err := rs.preparedState(ctx, i, v, cfg, spec)
		if err != nil {
			if wasCanceled(err) {
				return Row{}, err
			}
			return Row{}, fmt.Errorf("experiment %q variant %q: %w", def.Name, v.Label, err)
		}
		st, err := core.Restore(cfg, ds)
		if err != nil {
			return Row{}, fmt.Errorf("experiment %q variant %q: %w", def.Name, v.Label, err)
		}
		st.MarkMeasurement()
		stack = st
	}
	return rs.finishVariant(ctx, v, stack)
}

// preparedState returns the decoded snapshot of the prepared device for the
// variant's configuration, building it (once per distinct key when a cache
// is present) by running the preparation workload to a full drain, and emits
// the cache-provenance event. The cache entry owns the decoded state, one
// for all variants; without a cache the variant decodes its own.
func (rs *runState) preparedState(ctx context.Context, i int, v Variant, cfg core.Config, spec PrepareSpec) (*snapshot.DeviceState, error) {
	def := rs.def
	pcfg := prepConfig(cfg, def.Base())
	if rs.cache == nil {
		data, err := buildPrepared(ctx, pcfg, spec)
		if err != nil {
			return nil, err
		}
		return decodeState(data)
	}
	key, err := prepKey(pcfg, spec)
	if err != nil {
		return nil, err
	}
	start := time.Now() //lint:wallclock cache-fetch wall-time telemetry
	e, hit := rs.cache.fetch(key, func() ([]byte, error) {
		return buildPrepared(ctx, pcfg, spec)
	})
	ds, err := e.state()
	if err == nil {
		kind := EventPrepareMiss
		if hit {
			kind = EventPrepareHit
		}
		rs.emit(Event{Kind: kind, Experiment: def.Name, Variant: v.Label, Index: i,
			Variants: len(def.Variants), CacheKey: key, Wall: time.Since(start)})
	}
	return ds, err
}

// buildPrepared ages a fresh device under the preparation config to a full
// drain and returns its encoded snapshot.
func buildPrepared(ctx context.Context, pcfg core.Config, spec PrepareSpec) ([]byte, error) {
	st, err := core.New(pcfg)
	if err != nil {
		return nil, err
	}
	spec.register(st)
	if _, err := st.RunCtx(ctx); err != nil {
		return nil, fmt.Errorf("preparation: %w", err)
	}
	ds, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(ds), nil
}

// finishVariant registers the measured workload on a ready stack (fresh or
// restored), drives it to a drain (or a context abort) and extracts the
// variant's row.
func (rs *runState) finishVariant(ctx context.Context, v Variant, stack *core.Stack) (Row, error) {
	wload := rs.def.Workload
	if v.Workload != nil {
		wload = v.Workload
	}
	wload(stack)
	if _, err := stack.RunCtx(ctx); err != nil {
		return Row{}, fmt.Errorf("experiment %q variant %q: %w", rs.def.Name, v.Label, err)
	}
	row := Row{Label: v.Label, X: v.X, Report: stack.Report()}
	if ts := stack.Stats.Series(); ts != nil {
		row.Timeline = ts.Sparkline()
	}
	return row, nil
}
