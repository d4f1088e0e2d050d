package eagletree

// The benchmark harness regenerates every experiment of the paper's
// evaluation/demonstration (see DESIGN.md's experiment index E1–E12). Each
// benchmark runs one full design-space sweep per iteration at the small
// scale and reports the headline metrics as custom benchmark outputs, so
//
//	go test -bench=. -benchmem
//
// reproduces the shape of every figure: who wins, by what factor, where the
// crossovers fall. `eagletree sweep -scale full` runs the same documents at
// full scale and prints the complete tables.

import (
	"context"
	"testing"

	"eagletree/internal/experiment"
)

// runSweep executes one predefined experiment (by suite id, small scale) per
// benchmark iteration and returns the last results for metric extraction.
func runSweep(b *testing.B, id string) experiment.Results {
	b.Helper()
	doc, ok := experiment.SuiteSpec(id, experiment.Small)
	if !ok {
		b.Fatalf("the suite has no experiment %q", id)
	}
	def, err := experiment.FromSpec(doc)
	if err != nil {
		b.Fatal(err)
	}
	var res experiment.Results
	for i := 0; i < b.N; i++ {
		res, err = experiment.New(experiment.Options{}).Run(context.Background(), def)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func row(b *testing.B, res experiment.Results, label string) ResultRow {
	b.Helper()
	for _, r := range res.Rows {
		if r.Label == label {
			return r
		}
	}
	b.Fatalf("experiment %s has no variant %q", res.Name, label)
	return ResultRow{}
}

// BenchmarkE1Parallelism — Fig. 1 hardware design space: throughput vs
// channels × LUNs under parallel random writes. Paper shape: scales with
// the LUN count until the channel saturates.
func BenchmarkE1Parallelism(b *testing.B) {
	res := runSweep(b, "e1")
	lo := row(b, res, "ch=1,luns/ch=1").Report.Throughput
	hi := row(b, res, "ch=4,luns/ch=4").Report.Throughput
	b.ReportMetric(lo, "IOPS_1LUN")
	b.ReportMetric(hi, "IOPS_16LUN")
	b.ReportMetric(hi/lo, "speedup")
	if hi <= lo {
		b.Fatal("parallelism speedup missing")
	}
}

// BenchmarkE2SchedPolicy — §3: read/write prioritization trade-off on a
// mixed workload. Paper shape: reads-first cuts read latency, inflates
// write latency; no single winner.
func BenchmarkE2SchedPolicy(b *testing.B) {
	res := runSweep(b, "e2")
	fifo := row(b, res, "fifo").Report
	rf := row(b, res, "reads-first").Report
	b.ReportMetric(fifo.ReadLatency.Mean.Micros(), "fifo_read_us")
	b.ReportMetric(rf.ReadLatency.Mean.Micros(), "readsfirst_read_us")
	b.ReportMetric(fifo.WriteLatency.Mean.Micros(), "fifo_write_us")
	b.ReportMetric(rf.WriteLatency.Mean.Micros(), "readsfirst_write_us")
}

// BenchmarkE3GCGreediness — §2.2 GC greediness sweep. Paper shape: lazier
// GC lowers write amplification but stretches the write tail.
func BenchmarkE3GCGreediness(b *testing.B) {
	res := runSweep(b, "e3")
	lazy := row(b, res, "greediness=1").Report
	greedy := row(b, res, "greediness=8").Report
	b.ReportMetric(lazy.WriteAmplification, "WA_lazy")
	b.ReportMetric(greedy.WriteAmplification, "WA_greedy")
	b.ReportMetric(lazy.WriteLatency.P99.Micros(), "p99_lazy_us")
	b.ReportMetric(greedy.WriteLatency.P99.Micros(), "p99_greedy_us")
}

// BenchmarkE4WearLeveling — §2.2 wear leveling modes under skewed
// overwrite. Paper shape: WL narrows the erase-count spread at a small
// throughput cost.
func BenchmarkE4WearLeveling(b *testing.B) {
	res := runSweep(b, "e4")
	off := row(b, res, "wl=off").Report
	full := row(b, res, "wl=static+dynamic").Report
	b.ReportMetric(float64(off.Wear.Spread()), "spread_off")
	b.ReportMetric(float64(full.Wear.Spread()), "spread_wl")
	b.ReportMetric(off.Throughput, "IOPS_off")
	b.ReportMetric(full.Throughput, "IOPS_wl")
}

// BenchmarkE5Mapping — §2.2 page map vs DFTL across CMT sizes. Paper shape:
// DFTL converges to the page map as the CMT grows.
func BenchmarkE5Mapping(b *testing.B) {
	res := runSweep(b, "e5")
	pm := row(b, res, "pagemap").Report
	small := row(b, res, "dftl,cmt=128").Report
	big := row(b, res, "dftl,cmt=8192").Report
	b.ReportMetric(pm.Throughput, "IOPS_pagemap")
	b.ReportMetric(small.Throughput, "IOPS_dftl_cmt128")
	b.ReportMetric(big.Throughput, "IOPS_dftl_cmt8192")
	b.ReportMetric(float64(small.TransReads+small.TransWrites), "transIO_cmt128")
}

// BenchmarkE6PriorityTag — §2.2 open-interface priorities. Paper shape: the
// tag slashes tagged-IO latency versus block-device mode.
func BenchmarkE6PriorityTag(b *testing.B) {
	res := runSweep(b, "e6")
	locked := row(b, res, "block-device").Report
	open := row(b, res, "open-interface").Report
	b.ReportMetric(locked.ReadLatency.Mean.Micros(), "read_us_locked")
	b.ReportMetric(open.ReadLatency.Mean.Micros(), "read_us_open")
	if open.ReadLatency.Mean >= locked.ReadLatency.Mean {
		b.Fatal("priority tag bought nothing")
	}
}

// BenchmarkE7UpdateLocality — §2.2 update-locality hints on a file-system
// workload. Paper shape: co-located files die together, cutting GC work.
func BenchmarkE7UpdateLocality(b *testing.B) {
	res := runSweep(b, "e7")
	un := row(b, res, "untagged").Report
	tagged := row(b, res, "locality-tags").Report
	b.ReportMetric(un.WriteAmplification, "WA_untagged")
	b.ReportMetric(tagged.WriteAmplification, "WA_tagged")
	b.ReportMetric(float64(un.GCMigratedPages), "gcPages_untagged")
	b.ReportMetric(float64(tagged.GCMigratedPages), "gcPages_tagged")
}

// BenchmarkE8Temperature — §2.2 temperature sources. Paper shape: hot/cold
// separation lowers WA; oracle ≥ detector ≥ none.
func BenchmarkE8Temperature(b *testing.B) {
	res := runSweep(b, "e8")
	none := row(b, res, "none").Report
	bloom := row(b, res, "bloom-detector").Report
	oracle := row(b, res, "oracle-tags").Report
	b.ReportMetric(none.WriteAmplification, "WA_none")
	b.ReportMetric(bloom.WriteAmplification, "WA_bloom")
	b.ReportMetric(oracle.WriteAmplification, "WA_oracle")
}

// BenchmarkE9QueueDepth — §2.1 outstanding-IO sweep. Paper shape:
// throughput rises to a knee at array saturation; latency keeps growing.
func BenchmarkE9QueueDepth(b *testing.B) {
	res := runSweep(b, "e9")
	d1 := row(b, res, "depth=1").Report
	d8 := row(b, res, "depth=8").Report
	d64 := row(b, res, "depth=64").Report
	b.ReportMetric(d1.Throughput, "IOPS_d1")
	b.ReportMetric(d8.Throughput, "IOPS_d8")
	b.ReportMetric(d64.Throughput, "IOPS_d64")
	b.ReportMetric(d64.ReadLatency.Mean.Micros(), "read_us_d64")
}

// BenchmarkE10AdvancedCmds — §2.2 copyback and interleaving. Paper shape:
// copyback accelerates GC; interleaving overlaps bus and array phases.
func BenchmarkE10AdvancedCmds(b *testing.B) {
	res := runSweep(b, "e10")
	base := row(b, res, "baseline").Report
	both := row(b, res, "copyback+interleaving").Report
	b.ReportMetric(base.Throughput, "IOPS_baseline")
	b.ReportMetric(both.Throughput, "IOPS_advanced")
	b.ReportMetric(both.Throughput/base.Throughput, "speedup")
}

// BenchmarkE11Aging — §2.3 device preparation. Paper shape: an aged device
// is markedly slower than a fresh one under the same burst.
func BenchmarkE11Aging(b *testing.B) {
	res := runSweep(b, "e11")
	fresh := row(b, res, "fresh").Report
	aged := row(b, res, "aged").Report
	b.ReportMetric(fresh.Throughput, "IOPS_fresh")
	b.ReportMetric(aged.Throughput, "IOPS_aged")
	b.ReportMetric(fresh.Throughput/aged.Throughput, "slowdown")
	if aged.Throughput >= fresh.Throughput {
		b.Fatal("aging had no effect")
	}
}

// BenchmarkE12Game — §3's game: search the scheduling design space for the
// composite-score optimum. Paper shape: the best combination is not the
// obvious one.
func BenchmarkE12Game(b *testing.B) {
	res := runSweep(b, "e12")
	w := experiment.DefaultGameWeights()
	best, worst := res.Rows[0], res.Rows[0]
	for _, r := range res.Rows[1:] {
		if w.Score(r.Report) > w.Score(best.Report) {
			best = r
		}
		if w.Score(r.Report) < w.Score(worst.Report) {
			worst = r
		}
	}
	b.Logf("best combo: %s (score %.2f); worst: %s (score %.2f)",
		best.Label, w.Score(best.Report), worst.Label, w.Score(worst.Report))
	b.ReportMetric(w.Score(best.Report), "score_best")
	b.ReportMetric(w.Score(worst.Report), "score_worst")
}
