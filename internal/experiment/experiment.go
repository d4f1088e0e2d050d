// Package experiment implements EagleTree's experimental suite API: an
// experiment template takes a parameter or policy, a strategy for varying it
// (the variant list), and a workload definition; the Runner executes one full
// simulation per variant and collects comparable metric rows — tables, CSV
// and text charts standing in for the GUI's graphs.
//
// Device preparation is first-class (§2.3's repeatable methodology): a
// document declares it as a spec.Prep, which the Runner builds once,
// snapshots and restores per variant, so statistics cover only the measured
// window. A document whose preparation must run under each variant's own
// configuration writes it into the workload instead.
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
	"eagletree/internal/spec"
)

// Variant is one setting of the varied parameter or policy, compiled from
// its document: plain data, resolved into live components only when it runs.
type Variant struct {
	// Label names the variant in tables ("channels=4", "policy=fifo").
	Label string
	// X is the variant's numeric value where one exists (sweep position);
	// charts use it as the x coordinate.
	X float64
	// Config is the document's base configuration with the variant's
	// overrides applied (spec.Experiment.ConfigFor), unresolved: the Runner
	// resolves it once, when the variant runs, so no component instance is
	// shared between variants or runs.
	Config spec.Config
	// Prep is the variant's effective device preparation — its own, or the
	// document's; a zero FillDepth means none. Declared preparation runs in
	// the prepare-once-restore-many flow: the runner prepares each distinct
	// (preparation config, prep, seed) combination once, snapshots the
	// drained stack, and restores the state per variant instead of re-aging
	// the device.
	Prep spec.Prep
	// Workload is the variant's effective measured thread list — its own, or
	// the document's — registered without dependencies on a stack that is
	// fresh or restored from the declared preparation.
	Workload []spec.Thread
}

// Definition is a compiled experiment template: a parameter, a strategy for
// varying it (the variant list) and a workload, as data. FromSpec builds it
// in one validating pass over a spec document.
type Definition struct {
	// Name identifies the experiment in reports.
	Name string
	// Variants is the parameter sweep; each produces one result row.
	Variants []Variant
	// Factor is the document's workload scale factor (f in expressions).
	Factor int64
	// SeriesBucket, when positive, records a completion time series with
	// this bucket width per variant; Timelines renders them ("graphs
	// showing how metrics evolved across time"). A variant that sets its own
	// series_bucket keeps it.
	SeriesBucket sim.Duration

	// baseDoc and base are the document's base configuration, as written
	// and resolved once by FromSpec. Preparation pins the base's measurement
	// knobs (prepConfig, prepDoc), and a variant whose bucket is the base's
	// takes SeriesBucket. base's components are only ever described (for
	// cache keys), never run.
	baseDoc spec.Config
	base    core.Config
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
