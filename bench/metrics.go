package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The two tables below are the
// source BENCHMARK.json mirrors; bench_test.go holds them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd is what a user of the simulator sees, measured with tracing off.
// All times are host time. Every metric is defined — and never zero — on all
// six workloads, because the driver bounds each one on each workload.
//
// The driver gives every run another seed, so a bound has to clear the spread
// between seeds and the host's drift between runs, not just the noise inside
// one run: each is about three times the widest interquartile spread seen
// over ten seeds on any workload (wall_s 5.4 % on grid_sweep, op_ms_p50 8.4 %
// on mixed_cold, whose median operation sits between two clusters,
// alloc_mb_per_pass 3.6 % on fabric_pipe), capped at the contract's 25 %.
// peak_rss_mb is at the cap for another reason: a high-water mark of a small
// heap follows the collector's pacing, and grid_sweep's median over ten seeds
// read 80 MB and 93 MB an hour apart on one build.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"rows_per_s", "1/s", "higher", 0.15},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_tail", "ms", "lower", 0.25},
	{"alloc_mb_per_pass", "MB", "lower", 0.10},
	{"allocs_k_per_pass", "k", "lower", 0.12},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

// perLayer is emitted by the traced run. Groups, in order: phase spans (self
// time per pass), store/query spans, fabric wire, modelled-component counts
// (exact; "lower" is nominal — they must not move at all under a speed PR),
// layer kernels.
var perLayer = concat(
	lower("s",
		"spec.decode_s", "spec.expand_s", "spec.canonkey_s", "core.new_s", "core.prepare_run_s",
		"core.snapshot_s", "snapshot.encode_s", "snapshot.file_s", "snapshot.verify_s", "snapshot.decode_s",
		"core.restore_s", "experiment.register_s", "core.measure_run_s", "core.report_s",
		"experiment.glue_s", "trace.capture_s",
		"resultstore.sink_s", "resultstore.append_s", "resultstore.rows_s", "query.fromrows_s",
		"query.filter_s", "query.sort_s", "query.groupby_s", "query.join_s", "query.diff_s", "query.render_s",
		"fabric.wire_s"),
	lower("B", "fabric.wire_bytes"),
	lower("count", "fabric.msgs"),
	lower("ratio", "trace.overhead_ratio"),

	lower("count", "sim.events_fired"),
	lower("ratio", "sim.events_per_io"),
	lower("ns", "sim.host_ns_per_event"),
	lower("count",
		"flash.reads", "flash.writes", "flash.erases", "flash.copybacks",
		"controller.app_ios", "controller.gc_migrated_pages", "controller.wl_migrated_pages"),
	lower("ratio", "controller.write_amp"),
	higher("count", "ftl.cmt_hits"),
	lower("count",
		"ftl.cmt_misses", "ftl.trans_ios", "gc.triggered", "wl.scans", "osched.max_pending",
		"fault.retries", "fault.relocations", "stats.completions"),
	lower("B", "snapshot.bytes"),
	higher("count", "experiment.prepare_hits"),
	lower("count", "experiment.prepare_misses"),
	lower("B/row", "resultstore.bytes_per_row"),

	lower("ns",
		"sim.schedule_fire_ns", "sim.zipf_next_ns",
		"flash.write_ns", "flash.read_ns", "flash.erase_ns", "flash.invalidate_ns", "flash.min_valid_block_ns",
		"ftl.pagemap_map_ns", "ftl.pagemap_lookup_ns", "ftl.dftl_hit_ns", "ftl.dftl_miss_ns", "ftl.bm_alloc_release_ns",
		"gc.select_greedy_ns", "gc.select_costbenefit_ns", "gc.select_random_ns", "wl.victims_ns", "hotcold.mbf_record_ns",
		"sched.fifo_pop_ns", "sched.priority_pop_ns", "sched.deadline_pop_ns", "sched.fair_pop_ns",
		"osched.fifo_pop_ns", "osched.prio_pop_ns", "osched.elevator_pop_ns", "osched.cfq_pop_ns",
		"controller.write_io_ns", "controller.read_io_ns", "stats.record_ns", "stats.percentile_ns",
		"trace.encode_bin_ns", "trace.decode_bin_ns", "trace.decode_text_ns", "trace.hash_ns"),
	higher("MB/s", "snapshot.encode_mb_s", "snapshot.decode_mb_s", "snapshot.verify_mb_s"),
	lower("ms", "core.restore_ms", "core.new_ms"),
	lower("us", "spec.decode_us", "spec.canonkey_us", "spec.expand_us_per_variant", "experiment.cache_hit_us"),
	lower("ns", "fabric.codec_lease_ns"),
	higher("MB/s", "fabric.codec_state_mb_s"),
	lower("ns",
		"resultstore.encode_ns_per_row", "resultstore.decode_ns_per_row",
		"query.filter_ns_per_row", "query.sort_ns_per_row", "query.groupby_ns_per_row",
		"query.join_ns_per_row", "query.diff_ns_per_row"),
)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// value is one measured metric as the contract's last line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the contract's metrics object: every metric of defs, in the
// table's unit, zero where the workload does not exercise the layer. A
// measured name outside the table is a bug in the benchmark.
func fill(defs []metricDef, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: measured[d.Name], Unit: d.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("bench: measured %q is not a declared metric", name)
		}
	}
	return out, nil
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the driver computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the nearest-rank p-th percentile (p in 0..100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
