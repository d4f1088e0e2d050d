package eagletree

import (
	"context"
	"strings"
	"testing"
)

// TestQuickstartFlow mirrors the package doc-comment quickstart end to end
// through the public facade only.
func TestQuickstartFlow(t *testing.T) {
	cfg := SmallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.LogicalPages())
	if n <= 0 {
		t.Fatal("no logical capacity")
	}
	prep := s.Add(&SequentialWriter{From: 0, Count: n, Depth: 32})
	barrier := s.AddBarrier(prep)
	s.Add(&RandomWriter{From: 0, Space: n, Count: n, Depth: 32}, barrier)
	s.Run()
	rep := s.Report()
	if rep.WriteLatency.Count != uint64(n) {
		t.Fatalf("measured %d writes, want %d", rep.WriteLatency.Count, n)
	}
	if !strings.Contains(rep.String(), "throughput") {
		t.Fatal("report rendering broken")
	}
}

func TestDefaultConfigIsValid(t *testing.T) {
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("DefaultConfig rejected: %v", err)
	}
	if _, err := New(SmallConfig()); err != nil {
		t.Fatalf("SmallConfig rejected: %v", err)
	}
}

func TestFacadeExperiment(t *testing.T) {
	def := Experiment{
		Name: "facade-sweep",
		Base: SmallConfig,
		Variants: []Variant{
			{Label: "qd=1", X: 1, Mutate: func(c *Config) { c.OS.QueueDepth = 1 }},
			{Label: "qd=16", X: 16, Mutate: func(c *Config) { c.OS.QueueDepth = 16 }},
		},
		Workload: func(s *Stack, after *Handle) {
			n := int64(s.LogicalPages())
			s.Add(&RandomWriter{From: 0, Space: n, Count: 500, Depth: 16}, after)
		},
	}
	res, err := NewRunner(ExperimentOptions{}).Run(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Best(MetricThroughput).Label != "qd=16" {
		t.Fatalf("deeper queue lost the throughput sweep: best=%q", res.Best(MetricThroughput).Label)
	}
}

// TestCustomThreadThroughFacade exercises the Thread extension point: a
// user-defined read-after-write verifier built only on exported API.
func TestCustomThreadThroughFacade(t *testing.T) {
	type verifier struct {
		FuncThread
	}
	var wrote, read int
	v := &FuncThread{}
	v.F = func(ctx *Ctx) {
		for i := LPN(0); i < 16; i++ {
			ctx.Write(i)
		}
	}
	v.OnDone = func(ctx *Ctx, r *Request) {
		switch r.Type {
		case WriteIO:
			wrote++
			ctx.Read(r.LPN)
		case ReadIO:
			read++
		}
		if ctx.InFlight() == 0 {
			ctx.Finish()
		}
	}
	_ = verifier{}

	s, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Add(v)
	s.Run()
	if wrote != 16 || read != 16 {
		t.Fatalf("wrote=%d read=%d, want 16/16", wrote, read)
	}
}

// arrivalPolicy is an SSD scheduling policy as a user outside the module
// would write it, against facade names only: arrival order among the requests
// the gate accepts. It ignores wait-classes — every pop asks about every
// queued request afresh — and leaves blocked requests to the gate's refusal.
type arrivalPolicy struct {
	queue []*Request
	pops  int
}

func (p *arrivalPolicy) Name() string              { return "arrival" }
func (p *arrivalPolicy) Push(r *Request)           { p.queue = append(p.queue, r) }
func (p *arrivalPolicy) PushBlocked(r *Request)    { p.Push(r) }
func (p *arrivalPolicy) Unblock(*Request)          {}
func (p *arrivalPolicy) WakeRequest(*Request, int) {}
func (p *arrivalPolicy) Len() int                  { return len(p.queue) }

func (p *arrivalPolicy) PopClassed(_ Time, g SSDGate) *Request {
	for i, r := range p.queue {
		if ok, _ := g.Evaluate(r); ok {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			p.pops++
			return r
		}
	}
	return nil
}

// TestCustomSSDPolicyThroughFacade: the facade is sufficient to write a
// policy, and one that ignores classes is still correct — arrival order is
// what SSDFIFO implements, so the two stacks must report identically.
func TestCustomSSDPolicyThroughFacade(t *testing.T) {
	run := func(policy SSDPolicy) string {
		cfg := SmallConfig()
		cfg.Controller.Policy = policy
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(s.LogicalPages())
		fill := s.AddBarrier(s.Add(&SequentialWriter{From: 0, Count: n, Depth: 32}))
		s.Add(&RandomWriter{From: 0, Space: n, Count: n, Depth: 16}, fill)
		s.Add(&RandomReader{From: 0, Space: n, Count: n, Depth: 16}, fill)
		s.Run()
		if policy.Len() != 0 {
			t.Fatalf("%s: %d requests left queued", policy.Name(), policy.Len())
		}
		return s.Report().String()
	}
	custom := &arrivalPolicy{}
	got, want := run(custom), run(&SSDFIFO{})
	if custom.pops == 0 {
		t.Fatal("the custom policy never dispatched")
	}
	if got != want {
		t.Fatalf("arrival-order policy and SSDFIFO report differently:\n%s\n---\n%s", got, want)
	}
}

func TestOpenInterfaceThroughFacade(t *testing.T) {
	cfg := SmallConfig()
	cfg.Controller.OpenInterface = true
	cfg.Controller.Policy = &SSDPriority{UseTags: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	published := false
	s.Add(&FuncThread{F: func(ctx *Ctx) {
		published = ctx.Publish(PriorityHint{Thread: 0, Priority: PriorityHigh})
		ctx.Write(1)
	}})
	s.Run()
	if !published {
		t.Fatal("open bus did not deliver the hint")
	}
}

func TestTimingPresets(t *testing.T) {
	slc, mlc := TimingSLC(), TimingMLC()
	if mlc.PageWrite <= slc.PageWrite {
		t.Fatal("MLC programs faster than SLC")
	}
	if mlc.EnduranceLimit >= slc.EnduranceLimit {
		t.Fatal("MLC endures more than SLC")
	}
	if err := slc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mlc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsExtractValues(t *testing.T) {
	s, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.LogicalPages())
	s.Add(&SequentialWriter{From: 0, Count: n, Depth: 16})
	s.Run()
	rep := s.Report()
	for _, m := range []Metric{
		MetricThroughput, MetricWriteMean, MetricWriteP99, MetricWriteStd, MetricWA,
	} {
		if v := m.F(rep); v < 0 {
			t.Errorf("%s = %f, want >= 0", m.Name, v)
		}
	}
	if MetricThroughput.F(rep) == 0 {
		t.Fatal("zero throughput on a full fill")
	}
}

// TestMLCSlowerThanSLC is an end-to-end sanity check of the timing model
// through the whole stack.
func TestMLCSlowerThanSLC(t *testing.T) {
	run := func(timing Timing) float64 {
		cfg := SmallConfig()
		cfg.Controller.Timing = timing
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(s.LogicalPages())
		s.Add(&SequentialWriter{From: 0, Count: n, Depth: 32})
		s.Run()
		return s.Report().Throughput
	}
	slc, mlc := run(TimingSLC()), run(TimingMLC())
	if mlc >= slc {
		t.Fatalf("MLC throughput %.0f >= SLC %.0f", mlc, slc)
	}
}

func TestBloomDetectorFacade(t *testing.T) {
	// Hot means "written in enough recent decay windows": hammer one page
	// across several windows (default window = 1024 writes) among unique
	// cold traffic.
	d := NewBloomDetector()
	for i := 0; i < 3000; i++ {
		if i%2 == 0 {
			d.RecordWrite(7)
		} else {
			d.RecordWrite(LPN(1000 + i))
		}
	}
	if d.Classify(7) != TempHot {
		t.Fatal("hammered page not classified hot")
	}
	if d.Classify(999999) == TempHot {
		t.Fatal("never-written page classified hot")
	}
}
