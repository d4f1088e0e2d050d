// The predefined experimental suite, E1–E14. The suite is data: the
// small-scale spec documents committed under specs/ (embedded through the
// specs package) are its only source, decoded when asked for, so anything the
// suite runs a user can run — and edit — from the same file. Full scale is
// those documents with three fields changed (Scale.apply); specs/full/ pins
// the derived documents for tools that read them by path.
package experiment

import (
	"fmt"
	"io/fs"
	"strings"

	"eagletree/internal/core"
	"eagletree/internal/spec"
	"eagletree/internal/trace"
	"eagletree/internal/workload"
	"eagletree/specs"
)

// Scale sizes the predefined experiments. Small finishes in tens of
// milliseconds per variant (benchmarks, CI); Full is the paper-credible
// size the sweep tool uses.
type Scale int

const (
	// Small is bench/CI scale: the committed documents as they are.
	Small Scale = iota
	// Full is report scale.
	Full
)

// apply rewrites a small-scale suite document for the scale. Full scale
// multiplies the workload sizes by eight (expressions see the factor as f),
// gives every LUN 64 more blocks, and replays the trace captured on the
// full-scale reference device instead of the small one.
func (s Scale) apply(e *spec.Experiment) {
	if s != Full {
		return
	}
	e.Factor = 8
	e.Base.Geometry.BlocksPerLUN += 64
	replayFullTrace(e.Workload)
	for _, v := range e.Variants {
		replayFullTrace(v.Workload)
	}
}

func replayFullTrace(threads []spec.Thread) {
	for i := range threads {
		if t := &threads[i]; t.Type == "e13replay" {
			if t.Params == nil { // a hand-edited thread relying on every default
				t.Params = map[string]any{}
			}
			t.Params["scale"] = "full"
		}
	}
}

// SuiteSpecs returns every predefined experiment as spec data at the given
// scale, in paper order. The documents are decoded from the embedded files on
// every call, so each caller owns what it gets.
func SuiteSpecs(s Scale) []spec.Experiment {
	names, err := fs.Glob(specs.FS, "e*.json")
	if err != nil {
		panic(fmt.Sprintf("experiment: embedded suite: %v", err))
	}
	suite := make([]spec.Experiment, len(names))
	for i := range suite {
		// Numbered, not globbed, names: paper order is numeric and e10 sorts
		// before e2.
		name := fmt.Sprintf("e%d.json", i+1)
		data, err := specs.FS.ReadFile(name)
		if err == nil {
			suite[i], err = spec.Decode(data)
		}
		if err != nil {
			// The documents are compiled in; only a bad commit gets here, and
			// every test that touches the suite catches it.
			panic(fmt.Sprintf("experiment: embedded suite document %s: %v", name, err))
		}
		s.apply(&suite[i])
	}
	return suite
}

// SuiteSpec looks one predefined experiment up by id ("e3", in any case) or
// by full name ("E3-gc-greediness").
func SuiteSpec(sel string, s Scale) (spec.Experiment, bool) {
	for _, e := range SuiteSpecs(s) {
		id, _, _ := strings.Cut(e.Name, "-")
		if strings.EqualFold(sel, id) || strings.EqualFold(sel, e.Name) {
			return e, true
		}
	}
	return spec.Experiment{}, false
}

// Suite returns every predefined experiment at the given scale, in paper
// order, resolved through the component registry.
func Suite(s Scale) []Definition {
	docs := SuiteSpecs(s)
	defs := make([]Definition, len(docs))
	for i, e := range docs {
		def, err := FromSpec(e)
		if err != nil {
			panic(fmt.Sprintf("experiment: suite spec %q: %v", e.Name, err))
		}
		defs[i] = def
	}
	return defs
}

// GameWeights scores the demonstration game: maximize throughput while
// balancing mean latency and latency variability between IO types (§3).
type GameWeights struct {
	// LatencyPenalty scales the mean of read and write latency (per µs).
	LatencyPenalty float64
	// BalancePenalty scales the |read - write| mean latency gap (per µs).
	BalancePenalty float64
	// VariabilityPenalty scales the summed latency std (per µs).
	VariabilityPenalty float64
}

// DefaultGameWeights returns the scoring the demo uses. Penalties are per
// millisecond of latency, gap and variability respectively.
func DefaultGameWeights() GameWeights {
	return GameWeights{LatencyPenalty: 0.1, BalancePenalty: 0.3, VariabilityPenalty: 0.1}
}

// Score computes the game's composite objective for one run: throughput
// discounted by mean latency, by the read/write latency imbalance, and by
// latency variability. Higher is better; the score stays positive, so it
// reads as "effective IOPS".
func (w GameWeights) Score(r core.Report) float64 {
	rm, wm := r.ReadLatency.Mean.Millis(), r.WriteLatency.Mean.Millis()
	gap := rm - wm
	if gap < 0 {
		gap = -gap
	}
	penalty := w.LatencyPenalty*(rm+wm) +
		w.BalancePenalty*gap +
		w.VariabilityPenalty*(r.ReadLatency.Std.Millis()+r.WriteLatency.Std.Millis())
	return r.Throughput / (1 + penalty)
}

// CaptureE13Trace records the E13 reference workload: a file-system churn on
// an aged device — the E13 document's own base device — captured at the OS
// scheduler layer after the measurement barrier. The result is fully
// determined by the scale, so every caller gets the identical trace.
func CaptureE13Trace(s Scale) *trace.Trace {
	doc, ok := SuiteSpec("e13", s)
	if !ok {
		panic("experiment: the embedded suite has no E13 document")
	}
	cap := trace.NewCapture()
	cap.Stop() // stay silent through device preparation
	cfg, err := doc.Base.Resolve()
	if err != nil {
		panic(fmt.Sprintf("experiment: E13 capture config: %v", err))
	}
	cfg.OS.Capture = cap
	st, err := core.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiment: E13 capture stack: %v", err))
	}
	n := int64(st.LogicalPages())
	barrier := st.AddBarrier(PrepareSpec{FillDepth: 32, AgePasses: 1}.register(st))
	arm := st.Add(&workload.Func{F: func(ctx *workload.Ctx) { cap.Start(ctx.Now()) }}, barrier)
	ppb := cfg.Controller.Geometry.PagesPerBlock
	st.Add(&workload.FileSystem{
		From: 0, Space: n * 3 / 4, Ops: 1200 * doc.Factor, Depth: 8,
		MeanFilePages: ppb,
	}, arm)
	st.Run()
	return cap.Trace()
}
