package spec

import (
	"errors"
	"reflect"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/flash"
	"eagletree/internal/gc"
	"eagletree/internal/hotcold"
	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/wl"
)

func canonBase() core.Config {
	return core.Config{
		Controller: controller.Config{
			Geometry:      flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 64, PagesPerBlock: 32, PageSize: 4096},
			Timing:        flash.TimingSLC(),
			Overprovision: 0.15,
			GCGreediness:  2,
			WL:            controller.WLOff(),
		},
		OS:   osched.Config{QueueDepth: 32},
		Seed: 7,
	}
}

// TestCanonKeyDistinguishesEveryComponent is the collision-hazard
// regression the registry exists for: every registered component, varied
// through each of its knobs — including knobs held in unexported state,
// like the MBF detector's effective configuration — must produce a distinct
// canonical key. The old reflective printer collapsed exactly these cases.
func TestCanonKeyDistinguishesEveryComponent(t *testing.T) {
	type tc struct {
		label string
		mut   func(*core.Config)
	}
	cases := []tc{
		{"base", nil},

		// SSD scheduling policies.
		{"policy=fifo-explicit", func(c *core.Config) { c.Controller.Policy = &sched.FIFO{} }},
		{"policy=priority", func(c *core.Config) { c.Controller.Policy = &sched.Priority{} }},
		{"policy=priority-reads", func(c *core.Config) { c.Controller.Policy = &sched.Priority{Prefer: sched.PreferReads} }},
		{"policy=priority-writes", func(c *core.Config) { c.Controller.Policy = &sched.Priority{Prefer: sched.PreferWrites} }},
		{"policy=priority-internal-last", func(c *core.Config) { c.Controller.Policy = &sched.Priority{Internal: sched.InternalLast} }},
		{"policy=priority-tags", func(c *core.Config) { c.Controller.Policy = &sched.Priority{UseTags: true} }},
		{"policy=deadline", func(c *core.Config) {
			c.Controller.Policy = &sched.Deadline{ReadDeadline: 2 * sim.Millisecond, WriteDeadline: 20 * sim.Millisecond}
		}},
		{"policy=deadline-tighter", func(c *core.Config) {
			c.Controller.Policy = &sched.Deadline{ReadDeadline: 1 * sim.Millisecond, WriteDeadline: 20 * sim.Millisecond}
		}},
		{"policy=deadline-capped", func(c *core.Config) {
			c.Controller.Policy = &sched.Deadline{ReadDeadline: 2 * sim.Millisecond, WriteDeadline: 20 * sim.Millisecond, MaxConsecutiveOverdue: 4}
		}},
		{"policy=deadline-fallback", func(c *core.Config) {
			c.Controller.Policy = &sched.Deadline{
				ReadDeadline: 2 * sim.Millisecond, WriteDeadline: 20 * sim.Millisecond,
				Fallback: &sched.Priority{Prefer: sched.PreferReads},
			}
		}},
		{"policy=fair", func(c *core.Config) { c.Controller.Policy = &sched.Fair{} }},
		{"policy=fair-weighted", func(c *core.Config) {
			f := &sched.Fair{}
			f.Weights[0], f.Weights[1] = 3, 1
			c.Controller.Policy = f
		}},

		// Write allocators.
		{"alloc=roundrobin", func(c *core.Config) { c.Controller.Alloc = &sched.RoundRobin{} }},
		{"alloc=striped", func(c *core.Config) { c.Controller.Alloc = sched.Striped{} }},
		{"alloc=patternaware", func(c *core.Config) {
			c.Controller.Alloc = &sched.PatternAware{Detector: &sched.PatternDetector{}}
		}},
		{"alloc=patternaware-minrun", func(c *core.Config) {
			c.Controller.Alloc = &sched.PatternAware{Detector: &sched.PatternDetector{MinRun: 16}}
		}},

		// GC victim policies.
		{"gc=costbenefit", func(c *core.Config) { c.Controller.GCPolicy = gc.CostBenefit{} }},
		{"gc=random", func(c *core.Config) { c.Controller.GCPolicy = &gc.Random{} }},

		// Wear-leveling modes, including knobs behind the mode flags.
		{"wl=static", func(c *core.Config) {
			cfg := wl.DefaultConfig()
			cfg.Dynamic = false
			c.Controller.WL = cfg
		}},
		{"wl=dynamic", func(c *core.Config) {
			cfg := wl.DefaultConfig()
			cfg.Static = false
			c.Controller.WL = cfg
		}},
		{"wl=full", func(c *core.Config) { c.Controller.WL = wl.DefaultConfig() }},
		{"wl=full-fast", func(c *core.Config) {
			cfg := wl.DefaultConfig()
			cfg.CheckInterval = 5 * sim.Millisecond
			c.Controller.WL = cfg
		}},
		{"wl=full-slack", func(c *core.Config) {
			cfg := wl.DefaultConfig()
			cfg.AgeSlack = 5
			c.Controller.WL = cfg
		}},
		{"wl=full-migrations", func(c *core.Config) {
			cfg := wl.DefaultConfig()
			cfg.MaxMigrationsPerScan = 4
			c.Controller.WL = cfg
		}},

		// Detectors — the MBF's knobs live in unexported state, the exact
		// case the reflective printer had to special-case.
		{"detector=mbf", func(c *core.Config) { c.Controller.Detector = hotcold.NewMBF(hotcold.DefaultMBFConfig()) }},
		{"detector=mbf-8filters", func(c *core.Config) {
			cfg := hotcold.DefaultMBFConfig()
			cfg.Filters = 8
			c.Controller.Detector = hotcold.NewMBF(cfg)
		}},
		{"detector=mbf-window", func(c *core.Config) {
			cfg := hotcold.DefaultMBFConfig()
			cfg.DecayWindow = 4096
			c.Controller.Detector = hotcold.NewMBF(cfg)
		}},
		{"detector=oracle", func(c *core.Config) { c.Controller.Detector = hotcold.Oracle{HotBelow: 100} }},
		{"detector=oracle-wider", func(c *core.Config) { c.Controller.Detector = hotcold.Oracle{HotBelow: iface.LPN(200)} }},

		// Mapping schemes.
		{"mapping=dftl", func(c *core.Config) { c.Controller.Mapping = controller.MapDFTL }},
		{"mapping=dftl-cmt", func(c *core.Config) {
			c.Controller.Mapping = controller.MapDFTL
			c.Controller.CMTEntries = 128
		}},
		{"mapping=dftl-trans", func(c *core.Config) {
			c.Controller.Mapping = controller.MapDFTL
			c.Controller.ReservedTransBlocks = 8
		}},

		// Timings.
		{"timing=mlc", func(c *core.Config) { c.Controller.Timing = flash.TimingMLC() }},
		{"timing=custom", func(c *core.Config) {
			tm := flash.TimingSLC()
			tm.PageWrite = 300 * sim.Microsecond
			c.Controller.Timing = tm
		}},

		// OS policies.
		{"os=prio", func(c *core.Config) { c.OS.Policy = &osched.Prio{} }},
		{"os=prio-reads", func(c *core.Config) { c.OS.Policy = &osched.Prio{ReadsFirst: true} }},
		{"os=elevator", func(c *core.Config) { c.OS.Policy = &osched.Elevator{} }},
		{"os=cfq", func(c *core.Config) { c.OS.Policy = &osched.CFQ{} }},
		{"os=cfq-quantum", func(c *core.Config) { c.OS.Policy = &osched.CFQ{Quantum: 8} }},

		// Non-component knobs that shape the aged state.
		{"seed", func(c *core.Config) { c.Seed = 99 }},
		{"geometry", func(c *core.Config) { c.Controller.Geometry.BlocksPerLUN = 128 }},
		{"overprovision", func(c *core.Config) { c.Controller.Overprovision = 0.3 }},
		{"greediness", func(c *core.Config) { c.Controller.GCGreediness = 8 }},
		{"gc-copyback", func(c *core.Config) { c.Controller.GCCopyback = true; c.Controller.Features.Copyback = true }},
		{"interleaving", func(c *core.Config) { c.Controller.Features.Interleaving = true }},
		{"writebuffer", func(c *core.Config) { c.Controller.WriteBufferPages = 16 }},
		{"badblocks", func(c *core.Config) { c.Controller.BadBlockFraction = 0.01; c.Controller.BadBlockSeed = 3 }},
		{"open", func(c *core.Config) { c.Controller.OpenInterface = true }},
		{"queue-depth", func(c *core.Config) { c.OS.QueueDepth = 4 }},
	}

	keys := map[string]string{}
	covered := map[Kind]map[string]bool{}
	cover := func(kind Kind, ref Ref) {
		if covered[kind] == nil {
			covered[kind] = map[string]bool{}
		}
		covered[kind][ref.Name] = true
		if fb, ok := ref.Params["fallback"]; ok {
			if fbr, err := coerceRef(fb); err == nil {
				covered[kind][fbr.Name] = true
			}
		}
	}
	for _, c := range cases {
		cfg := canonBase()
		if c.mut != nil {
			c.mut(&cfg)
		}
		key, err := CanonKey(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if prev, dup := keys[key]; dup {
			// "fifo explicit vs default" is the one intentional equivalence:
			// normalization maps both onto the same behavior, hence key.
			if c.label == "policy=fifo-explicit" && prev == "base" {
				continue
			}
			t.Fatalf("canonical key collision: %q and %q share\n%s", prev, c.label, key)
		}
		keys[key] = c.label

		cs, err := FromConfig(cfg)
		if err != nil {
			t.Fatalf("%s: FromConfig: %v", c.label, err)
		}
		cover(KindPolicy, cs.Policy)
		cover(KindAllocator, cs.Alloc)
		cover(KindGCPolicy, cs.GC.Policy)
		cover(KindWL, cs.WL)
		cover(KindDetector, cs.Detector)
		cover(KindMapping, cs.Mapping)
		cover(KindTiming, cs.Timing)
		cover(KindOSPolicy, cs.OS.Policy)
	}

	// Completeness: every registered component of every config-visible kind
	// must have appeared in the table above — a newly registered component
	// fails here until it gets collision coverage.
	for _, kind := range []Kind{KindPolicy, KindAllocator, KindGCPolicy, KindWL, KindDetector, KindMapping, KindTiming, KindOSPolicy} {
		for _, name := range Names(kind) {
			if !covered[kind][name] {
				t.Errorf("registered %s component %q has no canonical-key coverage; add cases varying each of its knobs", kind, name)
			}
		}
	}
}

// TestCanonKeyNormalizesDefaults: a configuration relying on runtime
// defaults and one spelling them out must share a key — that is what lets
// a configuration built in Go and a spec-driven run hit the same snapshot
// cache entries. The explicit side spells out every default the stack fills
// in, components and scalars alike; knobs with no effect in a configuration
// (CMT sizes without DFTL, a buffer latency without a buffer) key as unset.
func TestCanonKeyNormalizesDefaults(t *testing.T) {
	implicit := canonBase()
	implicit.Seed = 0
	implicit.Controller.Timing = flash.Timing{}
	implicit.Controller.Overprovision = 0
	implicit.Controller.GCGreediness = 0
	implicit.Controller.Mapping = controller.MapDFTL
	implicit.Controller.WriteBufferPages = 16
	implicit.Controller.WL.CheckInterval = 0
	implicit.OS.QueueDepth = 0

	explicit := implicit
	explicit.Seed = 1
	explicit.Controller.Timing = flash.TimingSLC()
	explicit.Controller.Overprovision = 0.1
	explicit.Controller.GCGreediness = 2
	explicit.Controller.CMTEntries = 4096
	explicit.Controller.ReservedTransBlocks = 2
	explicit.Controller.WriteBufferLatency = 5 * sim.Microsecond
	explicit.Controller.WL.CheckInterval = wl.DefaultConfig().CheckInterval
	explicit.Controller.Policy = &sched.FIFO{}
	explicit.Controller.Alloc = sched.LeastLoaded{}
	explicit.Controller.GCPolicy = gc.Greedy{}
	explicit.Controller.Detector = hotcold.None{}
	explicit.OS.QueueDepth = 32
	explicit.OS.Policy = &osched.FIFO{}

	unused := canonBase()
	unused.Controller.CMTEntries = 128
	unused.Controller.ReservedTransBlocks = 8
	unused.Controller.WriteBufferLatency = 3 * sim.Microsecond

	for _, pair := range []struct {
		label string
		a, b  core.Config
	}{
		{"defaults", implicit, explicit},
		{"unused knobs", canonBase(), unused},
	} {
		k1, err := CanonKey(pair.a)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := CanonKey(pair.b)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Errorf("%s: configurations the stack runs alike key differently:\n%s\n%s", pair.label, k1, k2)
		}
	}
}

// TestFromConfigResolveRoundTrip: describing a configuration and resolving
// the description must reach a fixed point — the second description equals
// the first. This is the stability property cache keys depend on.
func TestFromConfigResolveRoundTrip(t *testing.T) {
	cfg := canonBase()
	cfg.Controller.Policy = &sched.Deadline{
		ReadDeadline: 2 * sim.Millisecond, WriteDeadline: 20 * sim.Millisecond,
		Fallback: &sched.Priority{Prefer: sched.PreferWrites, UseTags: true},
	}
	cfg.Controller.Detector = hotcold.NewMBF(hotcold.MBFConfig{Filters: 6, DecayWindow: 2048})
	cfg.Controller.Mapping = controller.MapDFTL
	cfg.Controller.CMTEntries = 256
	cfg.Controller.WL = wl.DefaultConfig()
	cfg.OS.Policy = &osched.CFQ{Quantum: 6}

	first, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := first.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	second, err := FromConfig(resolved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("describe∘resolve is not a fixed point:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// unregisteredPolicy is a policy type the registry has never heard of.
type unregisteredPolicy struct{ sched.FIFO }

// TestCanonKeyUnknownComponent: a configuration holding an unregistered
// component must be a typed error — the old reflective printer silently
// produced colliding keys here.
func TestCanonKeyUnknownComponent(t *testing.T) {
	cfg := canonBase()
	cfg.Controller.Policy = &unregisteredPolicy{}
	_, err := CanonKey(cfg)
	var uc *UnknownComponentError
	if !errors.As(err, &uc) {
		t.Fatalf("error %v, want *UnknownComponentError", err)
	}
	if uc.Kind != KindPolicy {
		t.Fatalf("kind %q, want %q", uc.Kind, KindPolicy)
	}
}
