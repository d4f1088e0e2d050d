package experiment

import (
	"errors"
	"fmt"
	"sync"

	"eagletree/internal/core"
	"eagletree/internal/spec"
	"eagletree/internal/trace"
	"eagletree/internal/workload"
)

// FromSpec compiles a declarative experiment document into a Definition in
// one validating pass (spec.Experiment.Validated): unknown components,
// unknown fields, bad parameters and malformed expressions all surface here
// as the spec package's typed errors, before any simulation runs. It
// resolves the base configuration once and each variant's once, to validate
// them, and keeps them as data: the Runner resolves a variant's applied
// configuration again when it runs it, so spec-driven runs share no
// component instance across variants or runs, and the parallel runner stays
// bit-identical to the sequential one.
//
// To vary a knob across runs — the seed, say — change it on the document
// before compiling, as `eagletree sweep -seeds` does with Base.Seed.
func FromSpec(e spec.Experiment) (Definition, error) {
	base, variants, cfgs, err := e.Validated()
	if err != nil {
		return Definition{}, err
	}
	def := Definition{
		Name:         e.Name,
		Variants:     make([]Variant, len(variants)),
		Factor:       e.Factor,
		SeriesBucket: e.SeriesBucket.D(),
		baseDoc:      e.Base,
		base:         base,
	}
	for i, v := range variants {
		def.Variants[i] = compileVariant(e, v, cfgs[i])
	}
	return def, nil
}

// compileVariant is one variant of e as data: its applied configuration,
// and its own preparation and workload or else the document's.
func compileVariant(e spec.Experiment, v spec.Variant, cfg spec.Config) Variant {
	cv := Variant{Label: v.Label, X: v.X, Config: cfg, Workload: e.Workload}
	switch {
	case v.Prep != nil:
		cv.Prep = *v.Prep
	case e.Prep != nil:
		cv.Prep = *e.Prep
	}
	if len(v.Workload) > 0 {
		cv.Workload = v.Workload
	}
	return cv
}

// Keys returns each variant's canonical configuration key — spec.CanonKey
// of its resolved configuration — in variant order: the identity a
// distributed sweep leases by and a stored row records. Two processes
// holding the same document (and the same component registry) compute the
// same list independently; a coordinator compares digests of these lists
// before handing out (key, index) leases, turning registry or version skew
// between binaries into a handshake error instead of silently divergent
// rows. Running a definition needs no key, so only the callers that record
// or compare them pay for one.
func (def Definition) Keys() ([]string, error) {
	keys := make([]string, len(def.Variants))
	for i, v := range def.Variants {
		cfg, err := v.Config.Resolve()
		if err == nil {
			keys[i], err = spec.CanonKey(cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("experiment %q variant %q: %w", def.Name, v.Label, err)
		}
	}
	return keys, nil
}

// addSpecThreads registers a spec thread list on a stack, without
// dependencies. Expressions resolve against the live stack (n, ppb, qd) and
// the experiment's scale factor; a repeated thread sees its replica index as
// i. This one loop serves the Runner and RegisterRun, so the two cannot
// drift.
func addSpecThreads(st *core.Stack, threads []spec.Thread, factor int64) error {
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
			st.Add(thr)
		}
	}
	return nil
}

// ErrDeclaredPrep reports a declared preparation handed to RegisterRun. A
// prepared device comes from the Runner: Runner.Stack ages it on a stack of
// its own, snapshots the drained state (through the cache, under its key)
// and restores it for the measured window.
var ErrDeclaredPrep = errors.New("experiment: declared preparation runs through the Runner (Runner.Stack), not RegisterRun")

// RegisterRun registers a single-run spec's measured threads — the
// variant's workload, or else the document's — onto a live stack the caller
// built, fresh or restored, without dependencies. A variant or document
// that declares a preparation is refused with ErrDeclaredPrep.
func RegisterRun(e spec.Experiment, v spec.Variant, st *core.Stack) error {
	cv := compileVariant(e, v, spec.Config{})
	if cv.Prep.FillDepth > 0 {
		return fmt.Errorf("experiment %q variant %q: %w", e.Name, v.Label, ErrDeclaredPrep)
	}
	return addSpecThreads(st, cv.Workload, e.Factor)
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
