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
	"eagletree/internal/flash"
	"eagletree/internal/gc"
	"eagletree/internal/osched"
	"eagletree/internal/sched"
	"eagletree/internal/workload"
)

func ablBase() Config {
	cfg := SmallConfig()
	cfg.Seed = 7
	return cfg
}

var ablPrepare = PrepareSpec{FillDepth: 32, AgePasses: 1}

func ablOverwrite(s *Stack) {
	n := int64(s.LogicalPages())
	s.Add(&workload.RandomWriter{From: 0, Space: n, Count: 2 * n, Depth: 32})
}

func runAblation(b *testing.B, def experiment.Definition, metric Metric) experiment.Results {
	b.Helper()
	var res experiment.Results
	var err error
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
	def := experiment.Definition{
		Name: "ablation-allocator",
		Base: ablBase,
		Variants: []Variant{
			{Label: "leastloaded", Mutate: func(c *Config) { c.Controller.Alloc = sched.LeastLoaded{} }},
			{Label: "roundrobin", Mutate: func(c *Config) { c.Controller.Alloc = &sched.RoundRobin{} }},
			{Label: "striped", Mutate: func(c *Config) { c.Controller.Alloc = sched.Striped{} }},
		},
		Prep:     ablPrepare,
		Workload: ablOverwrite,
	}
	res := runAblation(b, def, experiment.MetricThroughput)
	st := res.Rows[2].Report.Throughput
	ll := res.Rows[0].Report.Throughput
	if st >= ll {
		b.Fatalf("striped (%.0f) not slower than least-loaded (%.0f)", st, ll)
	}
}

// BenchmarkAblationGCPolicy: victim selection. Greedy minimizes migration
// per reclaim; cost-benefit spares young blocks; random is the floor.
func BenchmarkAblationGCPolicy(b *testing.B) {
	def := experiment.Definition{
		Name: "ablation-gc-policy",
		Base: ablBase,
		Variants: []Variant{
			{Label: "greedy", Mutate: func(c *Config) { c.Controller.GCPolicy = gc.Greedy{} }},
			{Label: "costbenefit", Mutate: func(c *Config) { c.Controller.GCPolicy = gc.CostBenefit{} }},
			{Label: "random", Mutate: func(c *Config) { c.Controller.GCPolicy = &gc.Random{} }},
		},
		Prep:     ablPrepare,
		Workload: ablOverwrite,
	}
	res := runAblation(b, def, MetricWA)
	greedy := res.Rows[0].Report.WriteAmplification
	random := res.Rows[2].Report.WriteAmplification
	if greedy >= random {
		b.Fatalf("greedy WA %.2f not below random %.2f", greedy, random)
	}
}

// BenchmarkAblationOSPolicy: the OS-level scheduling strategy question from
// §2.1, over a thread mix of a flooding writer and a latency-bound reader.
func BenchmarkAblationOSPolicy(b *testing.B) {
	def := experiment.Definition{
		Name: "ablation-os-policy",
		Base: func() Config {
			cfg := ablBase()
			cfg.OS.QueueDepth = 4 // shallow: the OS pool ordering matters
			return cfg
		},
		Variants: []Variant{
			{Label: "fifo", Mutate: func(c *Config) { c.OS.Policy = &osched.FIFO{} }},
			{Label: "prio-reads", Mutate: func(c *Config) { c.OS.Policy = &osched.Prio{ReadsFirst: true} }},
			{Label: "cfq", Mutate: func(c *Config) { c.OS.Policy = &osched.CFQ{Quantum: 4} }},
		},
		Prep: ablPrepare,
		Workload: func(s *Stack) {
			n := int64(s.LogicalPages())
			s.Add(&workload.RandomWriter{From: 0, Space: n, Count: 3000, Depth: 32})
			s.Add(&workload.RandomReader{From: 0, Space: n, Count: 1000, Depth: 2})
		},
	}
	res := runAblation(b, def, experiment.MetricReadMean)
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
	size := func(pages int) Variant {
		return Variant{
			Label:  fmt.Sprintf("buffer=%d", pages),
			X:      float64(pages),
			Mutate: func(c *Config) { c.Controller.WriteBufferPages = pages },
		}
	}
	def := experiment.Definition{
		Name:     "ablation-write-buffer",
		Base:     ablBase,
		Variants: []Variant{size(0), size(16), size(64), size(256)},
		Prep:     ablPrepare,
		Workload: func(s *Stack) {
			n := int64(s.LogicalPages())
			s.Add(&workload.RandomWriter{From: 0, Space: n, Count: n, Depth: 16})
		},
	}
	res := runAblation(b, def, experiment.MetricWriteMean)
	none := res.Rows[0].Report.WriteLatency.Mean
	big := res.Rows[3].Report.WriteLatency.Mean
	if big >= none {
		b.Fatalf("256-page buffer write mean %v not below unbuffered %v", big, none)
	}
}

// BenchmarkAblationCellType: SLC vs MLC chip timings through the whole
// stack; MLC's slower program and erase compound under GC.
func BenchmarkAblationCellType(b *testing.B) {
	def := experiment.Definition{
		Name: "ablation-cell-type",
		Base: ablBase,
		Variants: []Variant{
			{Label: "slc", Mutate: func(c *Config) { c.Controller.Timing = flash.TimingSLC() }},
			{Label: "mlc", Mutate: func(c *Config) { c.Controller.Timing = flash.TimingMLC() }},
		},
		Prep:     ablPrepare,
		Workload: ablOverwrite,
	}
	res := runAblation(b, def, experiment.MetricThroughput)
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
	def := experiment.Definition{
		Name: "ablation-elevator",
		Base: ablBase,
		Variants: []Variant{
			{Label: "os-fifo", Mutate: func(c *Config) { c.OS.Policy = &osched.FIFO{} }},
			{Label: "os-elevator", Mutate: func(c *Config) { c.OS.Policy = &osched.Elevator{} }},
		},
		Prep: PrepareSpec{FillDepth: 32},
		Workload: func(s *Stack) {
			n := int64(s.LogicalPages())
			s.Add(&workload.RandomReader{From: 0, Space: n, Count: 4000, Depth: 64})
		},
	}
	res := runAblation(b, def, experiment.MetricThroughput)
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
func BenchmarkAblationPatternAware(b *testing.B) {
	def := experiment.Definition{
		Name: "ablation-pattern-aware",
		Base: func() Config {
			cfg := ablBase()
			// Interleaving lifts the channel ceiling so read-back
			// parallelism is LUN-bound, the effect under test.
			cfg.Controller.Features = Features{Interleaving: true}
			return cfg
		},
		Variants: []Variant{
			{Label: "leastloaded", Mutate: func(c *Config) { c.Controller.Alloc = sched.LeastLoaded{} }},
			{Label: "pattern-aware", Mutate: func(c *Config) {
				c.Controller.Alloc = &sched.PatternAware{Detector: &sched.PatternDetector{}}
			}},
		},
		// The writes are part of the workload, not a shared PrepareSpec:
		// the allocator in force while they run is the effect under test,
		// so only the read-back sits behind the measurement barrier.
		Workload: func(s *Stack) {
			n := int64(s.LogicalPages())
			// The sequential stream is written while a random writer
			// perturbs the array: load-based placement then parks
			// consecutive run pages on whichever LUNs happen to be idle,
			// clustering stretches of the run.
			seq := s.Add(&workload.SequentialWriter{From: 0, Count: n / 2, Depth: 2})
			noise := s.Add(&workload.RandomWriter{From: LPN(n / 2), Space: n / 2, Count: n, Depth: 8})
			s.Add(&workload.SequentialReader{From: 0, Count: n / 2, Depth: 16}, s.AddBarrier(seq, noise))
		},
	}
	res := runAblation(b, def, experiment.MetricThroughput)
	ll := res.Rows[0].Report.Throughput
	pa := res.Rows[1].Report.Throughput
	b.ReportMetric(pa/ll, "readback_speedup")
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
