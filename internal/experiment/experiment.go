// Package experiment implements EagleTree's experimental suite API: an
// experiment template takes a parameter or policy, a strategy for varying it
// (the variant list), and a workload definition; the Runner executes one full
// simulation per variant and collects comparable metric rows — tables, CSV
// and text charts standing in for the GUI's graphs.
//
// Device preparation is first-class (§2.3's repeatable methodology): a
// definition declares it as a PrepareSpec, which the Runner builds once,
// snapshots and restores per variant, so statistics cover only the measured
// window. A workload that must prepare under each variant's own
// configuration adds the barrier itself (Stack.AddBarrier).
//
// Execution is context-aware and observable: New(opts).Run(ctx, def) honors
// cancellation mid-sweep (partial Results carry the completed row prefix
// alongside a typed ErrCanceled) and streams typed events — variant
// lifecycle, snapshot-cache provenance, timings — to an optional Observer.
//
//eagletree:canonical
//eagletree:typederrors
package experiment

import (
	"eagletree/internal/core"
	"eagletree/internal/sim"
)

// Variant is one setting of the varied parameter or policy.
type Variant struct {
	// Label names the variant in tables ("channels=4", "policy=fifo").
	Label string
	// X is the variant's numeric value where one exists (sweep position);
	// charts use it as the x coordinate.
	X float64
	// Mutate applies the variant to the configuration the runner hands it:
	// Base(), with the definition's SeriesBucket set. A variant compiled
	// from a spec document replaces that configuration with its own and
	// keeps only the SeriesBucket (see FromSpec).
	Mutate func(*core.Config)
	// Prep, when non-nil, overrides the definition's Prep for this variant —
	// used when preparation itself is what varies (fresh vs aged device,
	// experiment E11). Point it at a zero PrepareSpec to disable preparation.
	Prep *PrepareSpec
	// Workload, when non-nil, overrides the definition's Workload for this
	// variant — used when the workload itself carries the varied behavior
	// (oracle temperature tags, experiment E8).
	Workload func(s *core.Stack)
}

// Definition is an experiment template.
type Definition struct {
	// Name identifies the experiment in reports.
	Name string
	// Base returns the configuration shared by all variants.
	Base func() core.Config
	// Variants is the parameter sweep; each produces one result row.
	Variants []Variant
	// Prep declaratively describes device preparation (sequential fill plus
	// random aging). Declared preparation runs in the prepare-once-restore-
	// many flow: the runner prepares each distinct (preparation config, spec,
	// seed) combination once, snapshots the drained stack, and restores the
	// state per variant instead of re-aging the device.
	Prep PrepareSpec
	// Workload registers the measured threads on a stack that is fresh or
	// restored from the declared preparation; they run without dependencies.
	// A workload that prepares the device itself puts its measured threads
	// behind s.AddBarrier over its preparation threads.
	Workload func(s *core.Stack)
	// SeriesBucket, when positive, records a completion time series with
	// this bucket width per variant; Timelines renders them ("graphs
	// showing how metrics evolved across time").
	SeriesBucket sim.Duration
}

// Row is one variant's outcome.
type Row struct {
	Label  string
	X      float64
	Report core.Report
	// Timeline is the completion-rate sparkline over the measured window
	// (empty unless the definition set SeriesBucket).
	Timeline string
}

// Results collects every variant's outcome for rendering.
type Results struct {
	Name string
	Rows []Row
}

// Options tunes how an experiment executes; the zero value is the default:
// GOMAXPROCS workers and a private in-memory snapshot cache, so declared
// preparation runs once per distinct state within the call.
type Options struct {
	// Workers bounds variant parallelism; <= 0 means GOMAXPROCS, 1 is the
	// plain sequential loop.
	Workers int
	// Cache, when non-nil, supplies a shared (possibly disk-backed) snapshot
	// cache — repeated sweeps then skip preparation entirely.
	Cache *StateCache
	// NoPrepareCache disables snapshot reuse: every variant prepares its own
	// device state from scratch. This is the fresh baseline the determinism
	// tests and the CI state-cache check compare restored runs against.
	NoPrepareCache bool
	// Observer, when non-nil, receives the run's event stream: variant
	// lifecycle, snapshot-cache provenance and timings. Calls are serialized
	// but arrive from worker goroutines in completion order.
	Observer Observer
}

// prepFor resolves the variant's effective preparation.
func (def Definition) prepFor(v Variant) PrepareSpec {
	if v.Prep != nil {
		return *v.Prep
	}
	return def.Prep
}

// Metric extracts one scalar from a report, for charts and CSV columns.
type Metric struct {
	Name string
	F    func(core.Report) float64
}

// Standard metrics experiments chart.
var (
	MetricThroughput = Metric{"throughput_iops", func(r core.Report) float64 { return r.Throughput }}
	MetricReadMean   = Metric{"read_mean_us", func(r core.Report) float64 { return r.ReadLatency.Mean.Micros() }}
	MetricWriteMean  = Metric{"write_mean_us", func(r core.Report) float64 { return r.WriteLatency.Mean.Micros() }}
	MetricReadP99    = Metric{"read_p99_us", func(r core.Report) float64 { return r.ReadLatency.P99.Micros() }}
	MetricWriteP99   = Metric{"write_p99_us", func(r core.Report) float64 { return r.WriteLatency.P99.Micros() }}
	MetricReadStd    = Metric{"read_std_us", func(r core.Report) float64 { return r.ReadLatency.Std.Micros() }}
	MetricWriteStd   = Metric{"write_std_us", func(r core.Report) float64 { return r.WriteLatency.Std.Micros() }}
	MetricWA         = Metric{"write_amp", func(r core.Report) float64 { return r.WriteAmplification }}
	MetricGCPages    = Metric{"gc_pages", func(r core.Report) float64 { return float64(r.GCMigratedPages) }}
	MetricWearSpread = Metric{"wear_spread", func(r core.Report) float64 { return float64(r.Wear.Spread()) }}
)
