package controller

import (
	"testing"

	"eagletree/internal/flash"
	"eagletree/internal/hotcold"
	"eagletree/internal/iface"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/stats"
	"eagletree/internal/wl"
)

// plainOnly hides a policy's ClassedPolicy methods, so the controller falls
// back to the plain Pop(canRun) loop: the reference the classed gate — wait
// classes, capacity class, saturation short-circuit — must reproduce.
type plainOnly struct{ sched.Policy }

type completion struct {
	id uint64
	at sim.Time
}

// diffRun is everything one run of a differential case leaves behind.
type diffRun struct {
	done     []completion
	counters Counters
	flash    flash.Counters
	end      sim.Time
	ctl      *Controller
	probes   []*iface.Request // LUN-free requests submitted by the prober
}

// diffLoad is a seeded closed loop: depth requests stay outstanding until ops
// have been submitted, each completion submitting the next. Writes and mapped
// reads stay below the top quarter of the logical space, which is never
// written; probeEvery > 0 adds a timer that submits a trim or a read of that
// unmapped quarter at a fixed period, whatever the LUNs are doing.
type diffLoad struct {
	ops, depth       int
	readPct, trimPct int
	probeEvery       sim.Duration
}

func runDiffCase(t *testing.T, policy sched.Policy, mutate func(*Config), load diffLoad, seed uint64) *diffRun {
	t.Helper()
	eng := sim.NewEngine()
	out := &diffRun{}
	cfg := Config{
		Geometry:      flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 24, PagesPerBlock: 8, PageSize: 4096},
		Timing:        flash.TimingSLC(),
		Overprovision: 0.2,
		GCGreediness:  2,
		WL:            WLOff(),
		Policy:        policy,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rng := sim.NewRNG(seed)
	var id uint64
	submitted := 0
	var ctl *Controller
	next := func() {
		if submitted == load.ops {
			return
		}
		submitted++
		id++
		written := ctl.LogicalPages() * 3 / 4
		r := &iface.Request{ID: id, Type: iface.Write, LPN: iface.LPN(rng.Intn(written)), Source: iface.SourceApp, Submitted: eng.Now()}
		switch p := rng.Intn(100); {
		case submitted <= written:
			r.LPN = iface.LPN(submitted - 1) // sequential fill first
		case p < load.readPct:
			r.Type = iface.Read
		case p < load.readPct+load.trimPct:
			r.Type = iface.Trim
		}
		ctl.Submit(r)
	}
	cfg.OnComplete = func(r *iface.Request) {
		out.done = append(out.done, completion{r.ID, r.Completed})
		if r.ID < 1<<32 { // probes do not drive the loop
			next()
		}
	}
	var err error
	ctl, err = New(eng, iface.NewBus(), stats.NewCollector(0, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < load.depth; i++ {
		next()
	}
	if load.probeEvery > 0 {
		var probe func()
		probe = func() {
			if submitted == load.ops {
				return
			}
			n := uint64(len(out.probes))
			top := ctl.LogicalPages() * 3 / 4
			r := &iface.Request{ID: 1<<32 + n, Type: iface.Read, LPN: iface.LPN(top + int(n)%(ctl.LogicalPages()-top)),
				Source: iface.SourceApp, Submitted: eng.Now()}
			if n%2 == 1 {
				r.Type = iface.Trim
			}
			out.probes = append(out.probes, r)
			ctl.Submit(r)
			eng.ScheduleAfter(load.probeEvery, probe)
		}
		eng.ScheduleAfter(load.probeEvery, probe)
	}
	eng.RunUntilIdle()
	if submitted != load.ops || len(out.done) != load.ops+len(out.probes) {
		t.Fatalf("submitted %d of %d ops, %d completions for %d probes", submitted, load.ops, len(out.done), len(out.probes))
	}
	if err := ctl.checkQuiescent(); err != nil {
		t.Fatalf("not quiescent after drain: %v", err)
	}
	out.counters, out.flash, out.end, out.ctl = ctl.Counters(), ctl.Array().Counters(), eng.Now(), ctl
	return out
}

// TestClassedDispatchMatchesPlainScan runs the same seeded workload twice per
// case — once with the policy's classed methods hidden, once classed — and
// requires identical (request ID, completion time) sequences and final
// counters. The risk it covers sits in the controller's Gate, not the queue:
// a wait-class that is not a necessary condition, a token that misses a
// state change, or a saturation count that drifts would each reorder or
// starve something here.
func TestClassedDispatchMatchesPlainScan(t *testing.T) {
	staticWL := func(cfg *Config) {
		w := wl.DefaultConfig()
		w.Dynamic = false
		w.CheckInterval = 2 * sim.Millisecond
		w.IdleFactor = 2
		cfg.WL = w
	}
	writeOnly := diffLoad{ops: 6000, depth: 24}
	mixed := diffLoad{ops: 6000, depth: 24, readPct: 40, trimPct: 5}
	cases := []struct {
		name   string
		policy func() sched.Policy
		mutate func(*Config)
		load   diffLoad
		check  func(*testing.T, *diffRun)
	}{
		{
			name:   "mbf-detector/gc-bound-writes",
			policy: func() sched.Policy { return &sched.FIFO{} },
			mutate: func(cfg *Config) { cfg.Detector = hotcold.NewMBF(hotcold.MBFConfig{DecayWindow: 64}) },
			load:   writeOnly,
			check:  wantGC,
		},
		{
			name:   "priority-reads-first/gc+wl",
			policy: func() sched.Policy { return &sched.Priority{Prefer: sched.PreferReads, Internal: sched.InternalLast} },
			mutate: staticWL,
			load:   mixed,
			check: func(t *testing.T, r *diffRun) {
				wantGC(t, r)
				if r.counters.WLMigratedPages == 0 {
					t.Error("static WL never migrated: the case does not exercise WL migration writes")
				}
			},
		},
		{
			name: "deadline-capped-overdue",
			policy: func() sched.Policy {
				return &sched.Deadline{ReadDeadline: 200 * sim.Microsecond, WriteDeadline: 2 * sim.Millisecond,
					InternalDeadline: 5 * sim.Millisecond, MaxConsecutiveOverdue: 2}
			},
			load:  mixed,
			check: wantGC,
		},
		{
			name:   "fair",
			policy: func() sched.Policy { return &sched.Fair{Weights: [iface.NumSources]int{2, 1, 1, 1}} },
			load:   mixed,
			check:  wantGC,
		},
		{
			name:   "lun-free-probes-under-saturation",
			policy: func() sched.Policy { return &sched.FIFO{} },
			load:   diffLoad{ops: 4000, depth: 24, probeEvery: 37 * sim.Microsecond},
			check: func(t *testing.T, r *diffRun) {
				// Every LUN is busy almost always here; a probe needs none, so
				// it must never wait for one.
				if len(r.probes) < 100 {
					t.Fatalf("only %d probes ran", len(r.probes))
				}
				cmd := r.ctl.cfg.Timing.Cmd
				for _, p := range r.probes {
					want := p.Submitted
					if p.Type == iface.Read {
						want = want.Add(cmd)
					}
					if p.Completed != want {
						t.Fatalf("probe %v submitted at %v completed at %v, want %v: starved behind busy LUNs",
							p.Type, p.Submitted, p.Completed, want)
					}
				}
			},
		},
		{
			name:   "dftl-chains",
			policy: func() sched.Policy { return &sched.FIFO{} },
			mutate: func(cfg *Config) {
				cfg.Mapping = MapDFTL
				cfg.CMTEntries = 32
				cfg.ReservedTransBlocks = 4
			},
			load: mixed,
			check: func(t *testing.T, r *diffRun) {
				if r.flash.Writes <= r.counters.AppWrites+r.counters.GCMigratedPages {
					t.Error("no translation writes: the case does not exercise DFTL chains")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2} {
				plain := runDiffCase(t, plainOnly{tc.policy()}, tc.mutate, tc.load, seed)
				classed := runDiffCase(t, tc.policy(), tc.mutate, tc.load, seed)
				if plain.ctl.classed != nil || classed.ctl.classed == nil {
					t.Fatal("the two runs did not take the plain and the classed dispatch path")
				}
				for i := range plain.done {
					if plain.done[i] != classed.done[i] {
						t.Fatalf("seed %d: completion %d differs: plain %+v, classed %+v", seed, i, plain.done[i], classed.done[i])
					}
				}
				if plain.counters != classed.counters || plain.flash != classed.flash || plain.end != classed.end {
					t.Fatalf("seed %d: final state differs:\nplain   %+v %+v end %v\nclassed %+v %+v end %v", seed,
						plain.counters, plain.flash, plain.end, classed.counters, classed.flash, classed.end)
				}
				tc.check(t, classed)
			}
		})
	}
}

func wantGC(t *testing.T, r *diffRun) {
	t.Helper()
	if r.counters.GCMigratedPages == 0 {
		t.Error("GC never migrated a page: the case is not GC-bound")
	}
}
