package experiment

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/spec"
	"eagletree/internal/workload"
)

// collectObserver records every event, concurrency-safely (the runner
// serializes OnEvent, but tests also read after Run returns).
type collectObserver struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectObserver) OnEvent(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
}

func (c *collectObserver) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// TestRunnerMatchesRunWorkers: across the whole E1–E14 suite, the Runner at
// four workers produces the same Results as at one, bit for bit, over one
// snapshot cache shared by every experiment — parallel ≡ sequential, and a
// prepared state aged for one experiment serves the next.
func TestRunnerMatchesRunWorkers(t *testing.T) {
	forEachSuiteRun(t, func(t *testing.T, r suiteRun) {
		if !reflect.DeepEqual(r.cached1, r.cached4) {
			t.Fatalf("4-worker shared-cache results differ from the 1-worker run:\n1: %+v\n4: %+v", r.cached1, r.cached4)
		}
	})
}

// TestRunnerEventCoverage: an uncancelled run emits exactly one
// VariantQueued and one VariantDone per variant, prepare provenance for
// every declared-preparation variant, and one terminal ExperimentDone —
// under both the sequential and the parallel runner.
func TestRunnerEventCoverage(t *testing.T) {
	def := suiteDef(t, "e3", Small) // declared prep: first variant misses, rest hit
	for _, workers := range []int{1, 3} {
		obs := &collectObserver{}
		if _, err := New(Options{Workers: workers, Observer: obs}).Run(context.Background(), def); err != nil {
			t.Fatal(err)
		}
		events := obs.all()
		queued := make(map[int]int)
		done := make(map[int]int)
		prepared := make(map[int]int)
		var misses, terminal int
		for _, ev := range events {
			switch ev.Kind {
			case EventVariantQueued:
				queued[ev.Index]++
			case EventVariantDone:
				done[ev.Index]++
				if ev.Err != nil {
					t.Fatalf("variant %d reported error: %v", ev.Index, ev.Err)
				}
				if ev.Row == nil || ev.Row.Label != def.Variants[ev.Index].Label {
					t.Fatalf("variant %d done event carries wrong row: %+v", ev.Index, ev.Row)
				}
			case EventVariantCanceled:
				t.Fatalf("uncancelled run emitted cancellation for variant %d", ev.Index)
			case EventPrepareHit, EventPrepareMiss:
				prepared[ev.Index]++
				if ev.CacheKey == "" {
					t.Fatalf("prepare event without cache provenance: %+v", ev)
				}
				if ev.Kind == EventPrepareMiss {
					misses++
				}
			case EventExperimentDone:
				terminal++
				if ev.Err != nil {
					t.Fatalf("terminal event reported error: %v", ev.Err)
				}
			}
		}
		for i := range def.Variants {
			if queued[i] != 1 || done[i] != 1 || prepared[i] != 1 {
				t.Fatalf("workers=%d variant %d: queued %d, done %d, prepared %d; want 1 each",
					workers, i, queued[i], done[i], prepared[i])
			}
		}
		if misses != 1 {
			t.Fatalf("workers=%d: %d prepare misses, want exactly 1 (variants share one aged state)", workers, misses)
		}
		if terminal != 1 {
			t.Fatalf("workers=%d: %d terminal events, want 1", workers, terminal)
		}
		if events[len(events)-1].Kind != EventExperimentDone {
			t.Fatalf("workers=%d: last event is %v, want experiment-done", workers, events[len(events)-1].Kind)
		}
	}
}

// TestRunnerCancelPrefixDeterministic cancels a sweep at a fixed event — the
// k-th variant completion — and asserts the partial Results are exactly the
// uncancelled run's leading rows, bit for bit, for both the sequential and
// the parallel runner, and that the error is the typed ErrCanceled.
func TestRunnerCancelPrefixDeterministic(t *testing.T) {
	def := suiteDef(t, "e3", Small)
	full, err := New(Options{Workers: 1}).Run(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var doneSeen int
		obs := ObserverFunc(func(ev Event) {
			if ev.Kind == EventVariantDone {
				doneSeen++
				if doneSeen == 2 {
					cancel()
				}
			}
		})
		res, err := New(Options{Workers: workers, Observer: obs}).Run(ctx, def)
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: canceled run returned no error", workers)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: error %v is not ErrCanceled", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v does not wrap context.Canceled", workers, err)
		}
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: error %T is not *CanceledError", workers, err)
		}
		if ce.Completed != len(res.Rows) || ce.Total != len(def.Variants) {
			t.Fatalf("workers=%d: CanceledError says %d/%d, results hold %d rows",
				workers, ce.Completed, ce.Total, len(res.Rows))
		}
		if len(res.Rows) >= len(full.Rows) {
			t.Fatalf("workers=%d: cancellation completed all %d variants", workers, len(res.Rows))
		}
		if !reflect.DeepEqual(res.Rows, full.Rows[:len(res.Rows)]) {
			t.Fatalf("workers=%d: partial rows differ from the uncancelled prefix:\npartial: %+v\nfull:    %+v",
				workers, res.Rows, full.Rows[:len(res.Rows)])
		}
	}
}

// TestRunnerCancelEventCoverage: a canceled run still accounts for every
// variant exactly once — each gets VariantQueued plus either VariantDone or
// VariantCanceled — and the terminal event carries the cancellation error.
func TestRunnerCancelEventCoverage(t *testing.T) {
	def := suiteDef(t, "e3", Small)
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		obs := &collectObserver{}
		firstDone := false
		chained := ObserverFunc(func(ev Event) {
			obs.OnEvent(ev)
			if ev.Kind == EventVariantDone && !firstDone {
				firstDone = true
				cancel()
			}
		})
		_, err := New(Options{Workers: workers, Observer: chained}).Run(ctx, def)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		queued := make(map[int]int)
		terminalPerVariant := make(map[int]int)
		var experimentDone int
		var sawCanceled bool
		for _, ev := range obs.all() {
			switch ev.Kind {
			case EventVariantQueued:
				queued[ev.Index]++
			case EventVariantDone:
				terminalPerVariant[ev.Index]++
			case EventVariantCanceled:
				terminalPerVariant[ev.Index]++
				sawCanceled = true
			case EventExperimentDone:
				experimentDone++
				if !errors.Is(ev.Err, ErrCanceled) {
					t.Fatalf("workers=%d: terminal event err = %v, want ErrCanceled", workers, ev.Err)
				}
			}
		}
		for i := range def.Variants {
			if queued[i] != 1 {
				t.Fatalf("workers=%d variant %d queued %d times", workers, i, queued[i])
			}
			if terminalPerVariant[i] != 1 {
				t.Fatalf("workers=%d variant %d got %d terminal events, want exactly 1",
					workers, i, terminalPerVariant[i])
			}
		}
		if !sawCanceled {
			t.Fatalf("workers=%d: cancellation produced no variant-canceled events", workers)
		}
		if experimentDone != 1 {
			t.Fatalf("workers=%d: %d experiment-done events", workers, experimentDone)
		}
	}
}

// explodingThread panics as soon as it starts: a crashing workload.
type explodingThread struct{}

func (explodingThread) Init(*workload.Ctx)                       { panic("workload exploded") }
func (explodingThread) OnComplete(*workload.Ctx, *iface.Request) {}

var registerExploding sync.Once

// explodingWorkload is a thread list whose one thread panics at its start.
// Its thread type is registered the first time a test asks for it, in this
// test binary only.
func explodingWorkload() []spec.Thread {
	registerExploding.Do(func() {
		spec.Register(spec.Component{Kind: spec.KindThread, Name: "test-explode",
			Doc:  "test only: panics when it starts",
			Make: func(*spec.Params) (any, error) { return explodingThread{}, nil }})
	})
	return []spec.Thread{{Type: "test-explode"}}
}

// TestRunnerPanicIsolation: a variant whose workload panics must not
// tear down the sweep. The panic becomes a typed *VariantError with the
// recovered value and a stack trace, the variant emits EventVariantFailed,
// and — under the sequential runner just like the parallel one — the
// remaining variants still run to completion.
func TestRunnerPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		def := suiteDef(t, "e3", Small)
		def.Variants = append([]Variant(nil), def.Variants[:3]...)
		def.Variants[1].Workload = explodingWorkload()
		obs := &collectObserver{}
		res, err := New(Options{Workers: workers, Observer: obs}).Run(context.Background(), def)
		var ve *VariantError
		if !errors.As(err, &ve) {
			t.Fatalf("workers=%d: err = %v (%T), want *VariantError", workers, err, err)
		}
		if ve.Index != 1 || ve.Variant != def.Variants[1].Label || ve.Experiment != def.Name {
			t.Fatalf("workers=%d: VariantError identifies %q/%q #%d", workers, ve.Experiment, ve.Variant, ve.Index)
		}
		if ve.Panic != "workload exploded" || len(ve.Stack) == 0 {
			t.Fatalf("workers=%d: VariantError carries panic %v with %d stack bytes", workers, ve.Panic, len(ve.Stack))
		}
		if len(res.Rows) != 1 {
			t.Fatalf("workers=%d: %d result rows, want the 1-row prefix before the crash", workers, len(res.Rows))
		}
		terminal := make(map[int]EventKind)
		for _, ev := range obs.all() {
			switch ev.Kind {
			case EventVariantDone, EventVariantFailed, EventVariantCanceled:
				if prev, dup := terminal[ev.Index]; dup {
					t.Fatalf("workers=%d: variant %d got two terminal events (%v, %v)", workers, ev.Index, prev, ev.Kind)
				}
				terminal[ev.Index] = ev.Kind
			}
		}
		want := []EventKind{EventVariantDone, EventVariantFailed, EventVariantDone}
		for i, k := range want {
			if terminal[i] != k {
				t.Fatalf("workers=%d: variant %d terminal event %v, want %v (crash must not cancel the rest)",
					workers, i, terminal[i], k)
			}
		}
	}
}

// TestRunnerDeadlineMidVariant: a context that expires while a simulation is
// in flight must abort it (the event loop polls), not hang until the drain.
func TestRunnerDeadlineMidVariant(t *testing.T) {
	def := suiteDef(t, "e3", Small)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: nothing may run at all
	res, err := New(Options{Workers: 1}).Run(ctx, def)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("pre-canceled run produced %d rows", len(res.Rows))
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Completed != 0 {
		t.Fatalf("pre-canceled run reported %+v", err)
	}
}
