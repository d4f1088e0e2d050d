package eagletree_test

// These tests use the package as a program outside the module does: through
// the eagletree facade only, never eagletree/internal/... Each one proves an
// extension point that DESIGN.md "Public API" documents.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"eagletree"
)

// TestQuickstartFlow mirrors the package doc-comment quickstart end to end
// through the public facade only.
func TestQuickstartFlow(t *testing.T) {
	cfg := eagletree.SmallConfig()
	s, err := eagletree.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.LogicalPages())
	if n <= 0 {
		t.Fatal("no logical capacity")
	}
	prep := s.Add(&eagletree.SequentialWriter{From: 0, Count: n, Depth: 32})
	barrier := s.AddBarrier(prep)
	s.Add(&eagletree.RandomWriter{From: 0, Space: n, Count: n, Depth: 32}, barrier)
	s.Run()
	rep := s.Report()
	if rep.WriteLatency.Count != uint64(n) {
		t.Fatalf("measured %d writes, want %d", rep.WriteLatency.Count, n)
	}
	if !strings.Contains(rep.String(), "throughput") {
		t.Fatal("report rendering broken")
	}
}

// TestCustomThreadThroughFacade exercises the Thread extension point: a
// user-defined read-after-write verifier built only on exported API.
func TestCustomThreadThroughFacade(t *testing.T) {
	var wrote, read int
	v := &eagletree.FuncThread{}
	v.F = func(ctx *eagletree.Ctx) {
		for i := eagletree.LPN(0); i < 16; i++ {
			ctx.Write(i)
		}
	}
	v.OnDone = func(ctx *eagletree.Ctx, r *eagletree.Request) {
		switch r.Type {
		case eagletree.WriteIO:
			wrote++
			ctx.Read(r.LPN)
		case eagletree.ReadIO:
			read++
		}
		if ctx.InFlight() == 0 {
			ctx.Finish()
		}
	}

	s, err := eagletree.New(eagletree.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Add(v)
	s.Run()
	if wrote != 16 || read != 16 {
		t.Fatalf("wrote=%d read=%d, want 16/16", wrote, read)
	}
}

// arrivalPolicy is an SSD scheduling policy written against facade names
// only: arrival order among the requests the gate accepts. It ignores
// wait-classes — every pop asks about every queued request afresh — and
// leaves blocked requests to the gate's refusal.
type arrivalPolicy struct {
	queue []*eagletree.Request
	pops  int
}

func (p *arrivalPolicy) Name() string                        { return "arrival" }
func (p *arrivalPolicy) Push(r *eagletree.Request)           { p.queue = append(p.queue, r) }
func (p *arrivalPolicy) PushBlocked(r *eagletree.Request)    { p.Push(r) }
func (p *arrivalPolicy) Unblock(*eagletree.Request)          {}
func (p *arrivalPolicy) WakeRequest(*eagletree.Request, int) {}
func (p *arrivalPolicy) Len() int                            { return len(p.queue) }

func (p *arrivalPolicy) PopClassed(_ eagletree.Time, g eagletree.SSDGate) *eagletree.Request {
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
	run := func(policy eagletree.SSDPolicy) string {
		cfg := eagletree.SmallConfig()
		cfg.Controller.Policy = policy
		s, err := eagletree.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(s.LogicalPages())
		fill := s.AddBarrier(s.Add(&eagletree.SequentialWriter{From: 0, Count: n, Depth: 32}))
		s.Add(&eagletree.RandomWriter{From: 0, Space: n, Count: n, Depth: 16}, fill)
		s.Add(&eagletree.RandomReader{From: 0, Space: n, Count: n, Depth: 16}, fill)
		s.Run()
		if policy.Len() != 0 {
			t.Fatalf("%s: %d requests left queued", policy.Name(), policy.Len())
		}
		return s.Report().String()
	}
	custom := &arrivalPolicy{}
	got, want := run(custom), run(&eagletree.SSDFIFO{})
	if custom.pops == 0 {
		t.Fatal("the custom policy never dispatched")
	}
	if got != want {
		t.Fatalf("arrival-order policy and SSDFIFO report differently:\n%s\n---\n%s", got, want)
	}
}

func TestOpenInterfaceThroughFacade(t *testing.T) {
	cfg := eagletree.SmallConfig()
	cfg.Controller.OpenInterface = true
	cfg.Controller.Policy = &eagletree.SSDPriority{UseTags: true}
	s, err := eagletree.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	published := false
	s.Add(&eagletree.FuncThread{F: func(ctx *eagletree.Ctx) {
		published = ctx.Publish(eagletree.PriorityHint{Thread: 0, Priority: eagletree.PriorityHigh})
		ctx.Write(1)
	}})
	s.Run()
	if !published {
		t.Fatal("open bus did not deliver the hint")
	}
}

// windowPolicy is an OS policy written against facade names only: it issues
// the oldest of the newest Window pending requests, so Window 1 is LIFO and
// a window as deep as the pool is FIFO.
type windowPolicy struct {
	Window int
	queue  []*eagletree.Request
}

var _ eagletree.OSPolicy = (*windowPolicy)(nil)

func (p *windowPolicy) Name() string              { return "window" }
func (p *windowPolicy) Push(r *eagletree.Request) { p.queue = append(p.queue, r) }
func (p *windowPolicy) Len() int                  { return len(p.queue) }

func (p *windowPolicy) Pop(eagletree.Time) *eagletree.Request {
	if len(p.queue) == 0 {
		return nil
	}
	i := max(len(p.queue)-p.Window, 0)
	r := p.queue[i]
	p.queue = append(p.queue[:i], p.queue[i+1:]...)
	return r
}

// registerWindow makes windowPolicy spec-addressable as "test-window", once
// per process (a name registered twice panics).
var registerWindow = sync.OnceFunc(func() {
	eagletree.RegisterSpecComponent(eagletree.SpecComponent{
		Kind: eagletree.SpecKindOSPolicy,
		Name: "test-window",
		Doc:  "issues the oldest of the newest window pending requests",
		Params: []eagletree.SpecParam{
			{Name: "window", Type: eagletree.SpecTInt, Doc: "pending requests considered per issue (1 = LIFO)"},
		},
		Make: func(p *eagletree.SpecParams) (any, error) {
			w := p.Int("window", 1)
			if w < 1 {
				return nil, fmt.Errorf("window %d < 1", w)
			}
			return &windowPolicy{Window: w}, nil
		},
		Describe: func(v any) (map[string]any, bool) {
			p, ok := v.(*windowPolicy)
			if !ok {
				return nil, false
			}
			return map[string]any{"window": p.Window}, true
		},
	})
})

// windowDoc names the registered policy in its base configuration and one
// variant. Its declared preparation keys the state cache through the
// policy's Describe: a policy the registry cannot describe fails the run.
const windowDoc = `{
  "version": 1,
  "name": "test-window",
  "base": {
    "geometry": {"channels": 2, "luns_per_channel": 2, "blocks_per_lun": 64, "pages_per_block": 16, "page_size": 4096},
    "os": {"policy": {"name": "test-window", "params": {"window": 4}}, "queue_depth": 4},
    "seed": 3
  },
  "prepare": {"fill_depth": 16, "age_passes": 1},
  "workload": [
    {"type": "mix", "params": {"from": 0, "space": "n", "count": 600, "read_fraction": 0.5, "depth": 16}}
  ],
  "variants": [
    {"label": "window=4"},
    {"label": "window=1", "set": {"os.policy": {"name": "test-window", "params": {"window": 1}}}}
  ]
}`

// TestRegisterComponentThroughFacade: a component registered from outside
// the module is listed in the catalogue, resolves in a spec document, and
// keys device preparation canonically — a second run restores every
// prepared device from the shared cache and reports identically.
func TestRegisterComponentThroughFacade(t *testing.T) {
	registerWindow()
	var found *eagletree.SpecComponent
	for _, c := range eagletree.SpecCatalogue(eagletree.SpecKindOSPolicy) {
		if c.Name == "test-window" {
			found = c
		}
	}
	if found == nil || len(found.Params) != 1 || found.Params[0].Type != eagletree.SpecTInt {
		t.Fatalf("the catalogue lists test-window as %+v", found)
	}

	doc, err := eagletree.DecodeExperimentSpec([]byte(windowDoc))
	if err != nil {
		t.Fatal(err)
	}
	def, err := eagletree.ExperimentFromSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	cache := eagletree.NewStateCache("")
	run := func() (eagletree.Results, int, int) {
		var hits, misses int
		res, err := eagletree.NewRunner(eagletree.ExperimentOptions{
			Workers: 1,
			Cache:   cache,
			Observer: eagletree.ExperimentObserverFunc(func(ev eagletree.ExperimentEvent) {
				switch ev.Kind {
				case eagletree.EventPrepareHit:
					hits++
				case eagletree.EventPrepareMiss:
					misses++
				}
			}),
		}).Run(context.Background(), def)
		if err != nil {
			t.Fatal(err)
		}
		return res, hits, misses
	}
	first, _, misses := run()
	if misses == 0 {
		t.Fatal("the first run prepared no device")
	}
	second, hits, misses := run()
	if misses != 0 || hits != len(def.Variants) {
		t.Fatalf("second run: %d cache hits, %d misses; want %d hits", hits, misses, len(def.Variants))
	}
	if len(first.Rows) != 2 || len(second.Rows) != 2 {
		t.Fatalf("%d and %d rows, want 2", len(first.Rows), len(second.Rows))
	}
	for i := range first.Rows {
		if first.Rows[i].Report != second.Rows[i].Report {
			t.Fatalf("%s: the cached run reports differently:\n%s\n---\n%s",
				first.Rows[i].Label, first.Rows[i].Report, second.Rows[i].Report)
		}
	}
	if first.Rows[0].Report == first.Rows[1].Report {
		t.Fatal("window=4 and window=1 report identically: the parameter never reached the policy")
	}
}
