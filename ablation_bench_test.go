package eagletree

// Ablation benchmarks for the design decisions DESIGN.md singles out: write
// allocation policy, GC victim selection, OS scheduling policy, the
// battery-backed write buffer, and the flash cell technology. Each swaps one
// module and reports the headline metric, quantifying what that choice is
// worth on a fixed workload.

import (
	"context"
	"fmt"
	"testing"

	"eagletree/internal/experiment"
	"eagletree/internal/sched"
	"eagletree/internal/spec"
	"eagletree/internal/workload"
)

func ablBase() Config {
	cfg := SmallConfig()
	cfg.Seed = 7
	return cfg
}

// ablDoc is an ablation as a spec document: SmallConfig at seed 7 — the
// document form of ablBase — with the variants given as (label, override
// path, value) triples on one path, aged by one fill and one random pass.
func ablDoc(name, path string, points []ablPoint, workload ...spec.Thread) spec.Experiment {
	doc := spec.Experiment{
		Name:     name,
		Base:     smallSpec(),
		Prep:     &spec.Prep{FillDepth: 32, AgePasses: 1},
		Workload: workload,
	}
	doc.Base.Seed = 7
	if len(workload) == 0 {
		doc.Workload = []spec.Thread{ablThread("randwrite", "2*n", 32)}
	}
	for _, p := range points {
		doc.Variants = append(doc.Variants, spec.Variant{Label: p.label, X: p.x, Set: map[string]any{path: p.value}})
	}
	return doc
}

// ablPoint is one variant of an ablation: its label, x and override value.
type ablPoint struct {
	label string
	x     float64
	value any
}

// ablThread is a uniform random reader or writer over the whole device.
func ablThread(kind string, count any, depth int) spec.Thread {
	return spec.Thread{Type: kind, Params: map[string]any{"from": 0, "space": "n", "count": count, "depth": depth}}
}

func runAblation(b *testing.B, doc spec.Experiment, metric Metric) experiment.Results {
	b.Helper()
	def, err := ExperimentFromSpec(doc)
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
	for _, row := range res.Rows {
		b.ReportMetric(metric.F(row.Report), row.Label)
	}
	return res
}

// BenchmarkAblationAllocator: write placement is a scheduling decision for
// page-mapped FTLs. Least-loaded and round-robin keep the array busy;
// striped placement (LPN mod N) forfeits that freedom — the paper's example
// of a mapping constraint restricting the scheduler.
func BenchmarkAblationAllocator(b *testing.B) {
	res := runAblation(b, ablDoc("ablation-allocator", "alloc", []ablPoint{
		{"leastloaded", 0, "leastloaded"}, {"roundrobin", 0, "roundrobin"}, {"striped", 0, "striped"},
	}), experiment.MetricThroughput)
	st := res.Rows[2].Report.Throughput
	ll := res.Rows[0].Report.Throughput
	if st >= ll {
		b.Fatalf("striped (%.0f) not slower than least-loaded (%.0f)", st, ll)
	}
}

// BenchmarkAblationGCPolicy: victim selection. Greedy minimizes migration
// per reclaim; cost-benefit spares young blocks; random is the floor.
func BenchmarkAblationGCPolicy(b *testing.B) {
	res := runAblation(b, ablDoc("ablation-gc-policy", "gc.policy", []ablPoint{
		{"greedy", 0, "greedy"}, {"costbenefit", 0, "costbenefit"}, {"random", 0, "random"},
	}), MetricWA)
	greedy := res.Rows[0].Report.WriteAmplification
	random := res.Rows[2].Report.WriteAmplification
	if greedy >= random {
		b.Fatalf("greedy WA %.2f not below random %.2f", greedy, random)
	}
}

// BenchmarkAblationOSPolicy: the OS-level scheduling strategy question from
// §2.1, over a thread mix of a flooding writer and a latency-bound reader.
func BenchmarkAblationOSPolicy(b *testing.B) {
	doc := ablDoc("ablation-os-policy", "os.policy", []ablPoint{
		{"fifo", 0, "fifo"},
		{"prio-reads", 0, spec.ParamRef("prio", map[string]any{"reads_first": true})},
		{"cfq", 0, spec.ParamRef("cfq", map[string]any{"quantum": 4})},
	}, ablThread("randwrite", 3000, 32), ablThread("randread", 1000, 2))
	doc.Base.OS.QueueDepth = 4 // shallow: the OS pool ordering matters
	res := runAblation(b, doc, experiment.MetricReadMean)
	fifo := res.Rows[0].Report.ReadLatency.Mean
	prio := res.Rows[1].Report.ReadLatency.Mean
	if prio >= fifo {
		b.Fatalf("OS reads-first mean %v not below FIFO %v", prio, fifo)
	}
}

// BenchmarkAblationWriteBuffer: the battery-backed-RAM write buffer module.
// Application-visible write latency collapses to the RAM store; flash work
// continues underneath (same WA).
func BenchmarkAblationWriteBuffer(b *testing.B) {
	var sizes []ablPoint
	for _, pages := range []int{0, 16, 64, 256} {
		sizes = append(sizes, ablPoint{fmt.Sprintf("buffer=%d", pages), float64(pages), pages})
	}
	res := runAblation(b, ablDoc("ablation-write-buffer", "write_buffer.pages", sizes,
		ablThread("randwrite", "n", 16)), experiment.MetricWriteMean)
	none := res.Rows[0].Report.WriteLatency.Mean
	big := res.Rows[3].Report.WriteLatency.Mean
	if big >= none {
		b.Fatalf("256-page buffer write mean %v not below unbuffered %v", big, none)
	}
}

// BenchmarkAblationCellType: SLC vs MLC chip timings through the whole
// stack; MLC's slower program and erase compound under GC.
func BenchmarkAblationCellType(b *testing.B) {
	res := runAblation(b, ablDoc("ablation-cell-type", "timing", []ablPoint{
		{"slc", 0, "slc"}, {"mlc", 0, "mlc"},
	}), experiment.MetricThroughput)
	slc := res.Rows[0].Report.Throughput
	mlc := res.Rows[1].Report.Throughput
	b.ReportMetric(slc/mlc, "slc_over_mlc")
	if mlc >= slc {
		b.Fatal("MLC not slower than SLC")
	}
}

// BenchmarkAblationElevator: the disk scheduler that made HDDs fast does
// nothing on an SSD — random reads cost the same regardless of address
// order, so C-SCAN's reordering buys no throughput. This is the paper's
// opening claim ("SSDs do not respect the HDD performance contract")
// expressed as a scheduler ablation.
func BenchmarkAblationElevator(b *testing.B) {
	doc := ablDoc("ablation-elevator", "os.policy", []ablPoint{
		{"os-fifo", 0, "fifo"}, {"os-elevator", 0, "elevator"},
	}, ablThread("randread", 4000, 64))
	doc.Prep = &spec.Prep{FillDepth: 32}
	res := runAblation(b, doc, experiment.MetricThroughput)
	fifo := res.Rows[0].Report.Throughput
	elev := res.Rows[1].Report.Throughput
	b.ReportMetric(elev/fifo, "elevator_over_fifo")
	// On an SSD the elevator must NOT win meaningfully — that is the point.
	if elev > fifo*1.05 {
		b.Fatalf("elevator won on an SSD (%.0f vs %.0f): address order should not matter", elev, fifo)
	}
}

// BenchmarkAblationPatternAware: placement decided at write time fixes the
// parallelism available at read time. Writing one sequential stream through
// least-loaded placement clusters a quiet period's run on few LUNs; the
// pattern-aware allocator stripes detected runs so the later sequential
// read-back fans out over the whole array.
//
// The writes are part of the run, not a declared preparation — the
// allocator in force while they run is the effect under test — and only the
// read-back sits behind the measurement barrier. A spec document has no
// barrier inside its workload, so each variant drives its stack directly.
func BenchmarkAblationPatternAware(b *testing.B) {
	variants := []struct {
		label string
		alloc func() sched.Allocator
	}{
		{"leastloaded", func() sched.Allocator { return sched.LeastLoaded{} }},
		{"pattern-aware", func() sched.Allocator { return &sched.PatternAware{Detector: &sched.PatternDetector{}} }},
	}
	throughput := make([]float64, len(variants))
	for i := 0; i < b.N; i++ {
		for vi, v := range variants {
			cfg := ablBase()
			// Interleaving lifts the channel ceiling so read-back
			// parallelism is LUN-bound, the effect under test.
			cfg.Controller.Features = Features{Interleaving: true}
			cfg.Controller.Alloc = v.alloc()
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			n := int64(s.LogicalPages())
			// The sequential stream is written while a random writer
			// perturbs the array: load-based placement then parks
			// consecutive run pages on whichever LUNs happen to be idle,
			// clustering stretches of the run.
			seq := s.Add(&workload.SequentialWriter{From: 0, Count: n / 2, Depth: 2})
			noise := s.Add(&workload.RandomWriter{From: LPN(n / 2), Space: n / 2, Count: n, Depth: 8})
			s.Add(&workload.SequentialReader{From: 0, Count: n / 2, Depth: 16}, s.AddBarrier(seq, noise))
			if _, err := s.RunCtx(context.Background()); err != nil {
				b.Fatal(err)
			}
			throughput[vi] = s.Report().Throughput
		}
	}
	for vi, v := range variants {
		b.ReportMetric(throughput[vi], v.label)
	}
	b.ReportMetric(throughput[1]/throughput[0], "readback_speedup")
}

// BenchmarkAblationDeterminism: the single-threaded DES core's determinism
// invariant — the whole point of simulation-based design-space exploration —
// measured as the cost of one full fixed-seed run.
func BenchmarkAblationDeterminism(b *testing.B) {
	var first Report
	for i := 0; i < b.N; i++ {
		s, err := New(ablBase())
		if err != nil {
			b.Fatal(err)
		}
		n := int64(s.LogicalPages())
		s.Add(&workload.RandomWriter{From: 0, Space: n, Count: n, Depth: 32})
		s.Run()
		rep := s.Report()
		if i == 0 {
			first = rep
		} else if rep != first {
			b.Fatal("identical seeds diverged across runs")
		}
	}
}
