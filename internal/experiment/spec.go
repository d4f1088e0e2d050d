package experiment

import (
	"fmt"
	"sync"

	"eagletree/internal/core"
	"eagletree/internal/spec"
	"eagletree/internal/trace"
	"eagletree/internal/workload"
)

// FromSpec compiles a declarative experiment document into a runnable
// Definition. The document is validated eagerly — unknown components,
// unknown fields, bad parameters and malformed expressions all surface here
// as the spec package's typed errors, before any simulation runs.
//
// A compiled variant's configuration is its document's configuration: Mutate
// replaces the configuration it is handed with the variant's own (the
// document's base with the variant's overrides, resolved), keeping only the
// SeriesBucket the runner set. To vary a knob across runs — the seed, say —
// change it on the document before compiling, as `eagletree sweep -seeds`
// does with Base.Seed; a wrapped Definition.Base does not reach a variant
// that sets paths.
//
// Components are resolved freshly on every Base/Mutate call (policies and
// detectors are stateful), so spec-driven runs share nothing across variants
// — exactly like hand-written definitions — and the parallel runner stays
// bit-identical to the sequential one.
func FromSpec(e spec.Experiment) (Definition, error) {
	if err := e.Validate(); err != nil {
		return Definition{}, err
	}
	def := Definition{
		Name:         e.Name,
		SeriesBucket: e.SeriesBucket.D(),
		Base: func() core.Config {
			cfg, err := e.Base.Resolve()
			if err != nil {
				// Validate resolved this exact document already; failure here
				// means the registry changed under a live definition.
				panic(fmt.Sprintf("experiment: spec %q base resolution failed after validation: %v", e.Name, err))
			}
			return cfg
		},
	}
	if e.Prep != nil {
		def.Prep = prepFromSpec(*e.Prep)
	}
	if len(e.Workload) > 0 {
		def.Workload = specWorkload(e.Name, e.Factor, e.Workload)
	}
	variants, err := e.ExpandVariants()
	if err != nil {
		return Definition{}, err
	}
	baseBucket := e.Base.SeriesBucket.D()
	for _, v := range variants {
		variant := Variant{Label: v.Label, X: v.X}
		if len(v.Set) > 0 {
			variant.Mutate = func(c *core.Config) {
				cs, err := e.ConfigFor(v)
				if err != nil {
					panic(fmt.Sprintf("experiment: spec %q: %v", e.Name, err))
				}
				cfg, err := cs.Resolve()
				if err != nil {
					panic(fmt.Sprintf("experiment: spec %q variant %q resolution failed after validation: %v", e.Name, v.Label, err))
				}
				// The runner sets SeriesBucket before Mutate (the CLI's
				// -timeline); a variant setting series_bucket itself wins.
				if cfg.SeriesBucket == baseBucket {
					cfg.SeriesBucket = c.SeriesBucket
				}
				*c = cfg
			}
		}
		if v.Prep != nil {
			ps := prepFromSpec(*v.Prep)
			variant.Prep = &ps
		}
		if len(v.Workload) > 0 {
			variant.Workload = specWorkload(e.Name, e.Factor, v.Workload)
		}
		def.Variants = append(def.Variants, variant)
	}
	return def, nil
}

func prepFromSpec(p spec.Prep) PrepareSpec {
	return PrepareSpec{FillDepth: p.FillDepth, AgePasses: p.AgePasses, AgeDepth: p.AgeDepth}
}

// specOf mirrors PrepareSpec back into its document form.
func (p PrepareSpec) specOf() spec.Prep {
	return spec.Prep{FillDepth: p.FillDepth, AgePasses: p.AgePasses, AgeDepth: p.AgeDepth}
}

// addSpecThreads registers a spec thread list on a stack, each thread
// dependent on barrier (none when nil). Expressions resolve against the live stack (n, ppb,
// qd) and the experiment's scale factor; a repeated thread sees its replica
// index as i. This one loop serves both the prepare-once experiment flow
// and the CLIs' single-run barrier flow, so the two cannot drift.
func addSpecThreads(st *core.Stack, barrier *workload.Handle, threads []spec.Thread, factor int64) error {
	cfg := st.Config()
	cfg.OS.WithDefaults()
	env := spec.Env{
		N:   int64(st.LogicalPages()),
		PPB: int64(cfg.Controller.Geometry.PagesPerBlock),
		QD:  int64(cfg.OS.QueueDepth),
		F:   factor,
	}
	for _, t := range threads {
		env.I = 0 // i is per-thread; a prior thread's replica count must not leak
		reps, err := t.RepeatCount(env)
		if err != nil {
			return fmt.Errorf("thread %q repeat: %w", t.Type, err)
		}
		for i := 0; i < reps; i++ {
			env.I = int64(i)
			thr, err := spec.MakeThread(t, env)
			if err != nil {
				return fmt.Errorf("thread %q: %w", t.Type, err)
			}
			st.Add(thr, barrier)
		}
	}
	return nil
}

// specWorkload compiles a thread list into a workload registration hook.
func specWorkload(name string, factor int64, threads []spec.Thread) func(*core.Stack) {
	return func(st *core.Stack) {
		if err := addSpecThreads(st, nil, threads, factor); err != nil {
			panic(fmt.Sprintf("experiment: spec %q: %v", name, err))
		}
	}
}

// RegisterRun registers a single-run spec (the base configuration with one
// variant's preparation and workload) onto a live stack: preparation
// threads, a measurement barrier, then the measured threads. It is the CLI
// path for running one spec document on a stack the caller built — the
// thread registration order matches the flag-driven CLI exactly, so a
// dumped spec reproduces its run bit for bit.
func RegisterRun(e spec.Experiment, v spec.Variant, st *core.Stack) error {
	return RegisterRunHook(e, v, st, nil)
}

// RegisterRunHook is RegisterRun with a measurement-boundary hook: when
// non-nil, hook is called with the preparation barrier's handle (nil when
// the spec declares no preparation) and its return value becomes the
// dependency of the measured threads. The CLI uses it to insert a
// capture-arming thread exactly at the boundary, preserving the historical
// thread-id sequence of flag-driven recorded runs.
func RegisterRunHook(e spec.Experiment, v spec.Variant, st *core.Stack, hook func(barrier *workload.Handle) *workload.Handle) error {
	prep := e.Prep
	if v.Prep != nil {
		prep = v.Prep
	}
	var barrier *workload.Handle
	if prep != nil {
		if ps := prepFromSpec(*prep); !ps.None() {
			barrier = st.AddBarrier(ps.register(st))
		}
	}
	if hook != nil {
		barrier = hook(barrier)
	}
	threads := e.Workload
	if len(v.Workload) > 0 {
		threads = v.Workload
	}
	return addSpecThreads(st, barrier, threads, e.Factor)
}

// e13Traces memoizes the captured E13 reference trace per scale: the capture
// simulation is deterministic, so every definition — sequential or parallel —
// replays the identical stream while paying for at most one capture run per
// process.
var (
	e13Mu     sync.Mutex
	e13Traces = map[Scale]*trace.Trace{}
)

func e13Trace(s Scale) *trace.Trace {
	e13Mu.Lock()
	defer e13Mu.Unlock()
	if tr, ok := e13Traces[s]; ok {
		return tr
	}
	tr := CaptureE13Trace(s)
	e13Traces[s] = tr
	return tr
}

func init() {
	// The E13 reference workload is a first-class thread type, so the
	// trace-replay experiment is expressible as pure spec data. It lives here
	// rather than in the spec package because producing the trace means
	// running the capture simulation, which only the experiment layer knows.
	spec.Register(spec.Component{
		Kind: spec.KindThread, Name: "e13replay",
		Doc: "replay the captured E13 aged-file-system reference trace",
		Params: []spec.Param{
			{Name: "mode", Type: spec.TString, Doc: "closed | open | dependent"},
			{Name: "time_scale", Type: spec.TFloat, Doc: "trace time stretch for open/dependent (0 = 1)"},
			{Name: "depth", Type: spec.TExpr, Doc: "IOs in flight (closed loop)"},
			{Name: "scale", Type: spec.TString, Doc: "which captured reference device the trace comes from: small | full (default small)"},
		},
		Make: func(p *spec.Params) (any, error) {
			mode, err := workload.ParseReplayMode(p.Enum("mode", "closed", "closed", "open", "dependent"))
			if err != nil {
				return nil, err
			}
			// The capture device is an explicit parameter, not inferred from
			// the document's factor: the full-scale trace addresses twice the
			// logical space, so silently coupling it to f would make a
			// factor-edited document replay out-of-range LPNs.
			sc := Small
			if p.Enum("scale", "small", "small", "full") == "full" {
				sc = Full
			}
			return &workload.Replay{
				Trace:     e13Trace(sc),
				Mode:      mode,
				TimeScale: p.Float("time_scale", 0),
				Depth:     int(p.Int64("depth", 32)),
			}, nil
		},
	})
}
