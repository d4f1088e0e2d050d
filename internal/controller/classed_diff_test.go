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

// ignoreClasses wraps a policy so that it never learns a wait-class and never
// sees the saturation proof: every pop evaluates every scannable request
// afresh, in the policy's order. That linear scan is the reference the gate's
// wait-classes, capacity class and saturation short-circuit must reproduce —
// and it pins the documented rule that a policy which ignores classes is still
// correct. Each verdict is also checked against naiveCanRun.
type ignoreClasses struct {
	sched.Policy
	t *testing.T
}

func (p ignoreClasses) PopClassed(now sim.Time, g sched.Gate) *iface.Request {
	return p.Policy.PopClassed(now, unclassedGate{g.(*Controller), p.t})
}

// unclassedGate forwards Evaluate's verdict with class -1. It has no Saturated
// method, and with nothing ever parked its tokens are never consulted.
type unclassedGate struct {
	c *Controller
	t *testing.T
}

func (g unclassedGate) Evaluate(r *iface.Request) (bool, int) {
	ok, _ := g.c.Evaluate(r)
	if want := naiveCanRun(g.c, r); ok != want {
		g.t.Fatalf("Evaluate(%v %v lpn %d) = %v, but recomputed from scratch the request can run = %v", r.Source, r.Type, r.LPN, ok, want)
	}
	return ok, -1
}
func (unclassedGate) ClassToken(int) uint64  { return 0 }
func (unclassedGate) ClassStable(int) uint64 { return 0 }

// naiveCanRun recomputes "can this request start now" from the mapper, the
// block manager and the in-flight table alone: no epoch-validated caches, no
// per-stream memo, no capacity shortcut.
func naiveCanRun(c *Controller, r *iface.Request) bool {
	st := stateOf(r)
	if st == nil || st.blocked {
		return false
	}
	switch st.kind {
	case opTransRead, opTransWrite:
		return !c.inflight[st.trans.PPA.LUN]
	case opTransErase:
		return !c.inflight[st.trans.Block.LUN]
	case opGCRead, opWLRead, opGCCopyback, opGCErase:
		return !c.inflight[st.src.LUN]
	case opGCWrite, opWLWrite:
		return !c.inflight[st.src.LUN] && c.bm.CanAlloc(st.src.LUN, c.computeStream(r, st))
	}
	switch r.Type {
	case iface.Read:
		ppa, mapped := c.mapper.Lookup(r.LPN)
		return !mapped || !c.inflight[ppa.LUN]
	case iface.Write:
		stream := c.computeStream(r, st)
		for lun, busy := range c.inflight {
			if !busy && c.bm.CanAlloc(lun, stream) {
				return true
			}
		}
		return false
	}
	return true // trim
}

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
// case — once with the policy wrapped in ignoreClasses, once as is — and
// requires identical (request ID, completion time) sequences and final
// counters. The risk it covers sits in the controller's Gate, not the queue:
// a wait-class that is not a necessary condition, a token that misses a
// state change, a saturation count that drifts or a cached readiness input
// gone stale would each reorder or starve something here.
func TestClassedDispatchMatchesPlainScan(t *testing.T) {
	staticWL := func(cfg *Config) {
		w := wl.DefaultConfig()
		w.Dynamic = false
		w.CheckInterval = 2 * sim.Millisecond
		w.IdleFactor = 2
		cfg.WL = w
	}
	dftl := func(cfg *Config) {
		cfg.Mapping = MapDFTL
		cfg.CMTEntries = 32
		cfg.ReservedTransBlocks = 4
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
			name: "deadline-priority-fallback",
			policy: func() sched.Policy {
				return &sched.Deadline{ReadDeadline: 300 * sim.Microsecond, WriteDeadline: 3 * sim.Millisecond,
					InternalDeadline: 5 * sim.Millisecond, Fallback: &sched.Priority{Prefer: sched.PreferReads, Internal: sched.InternalLast}}
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
			name:   "fair-weighted/dftl-chains",
			policy: func() sched.Policy { return &sched.Fair{Weights: [iface.NumSources]int{3, 1, 2, 1}} },
			mutate: dftl,
			load:   mixed,
			check:  wantTransWrites,
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
			mutate: dftl,
			load:   mixed,
			check:  wantTransWrites,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2} {
				plain := runDiffCase(t, ignoreClasses{tc.policy(), t}, tc.mutate, tc.load, seed)
				classed := runDiffCase(t, tc.policy(), tc.mutate, tc.load, seed)
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

func wantTransWrites(t *testing.T, r *diffRun) {
	t.Helper()
	if r.flash.Writes <= r.counters.AppWrites+r.counters.GCMigratedPages {
		t.Error("no translation writes: the case does not exercise DFTL chains")
	}
}

// TestAcceptedReadLeftQueuedStaysWakeable is the directed case behind the
// sweeps' class skip. Three overdue reads wait on one LUN. When it goes idle
// Deadline's overdue sweep asks about all three, gets three yeses and pops the
// earliest deadline, which makes the LUN busy again; the next sweep is refused
// at the second read and leaves the class there, so the third — accepted once,
// never dispatched — is not asked about again. A trim then unmaps the third
// read's page (GC's remap wakes through the same wakeRead; on this controller
// GC keeps a page on its LUN, so unmap is the retarget whose effect shows): the
// read needs no LUN any more and must complete one command time later, not
// sleep in its old class until that LUN's next completion.
func TestAcceptedReadLeftQueuedStaysWakeable(t *testing.T) {
	eng := sim.NewEngine()
	var ctl *Controller
	var busy, first, second, third, trim *iface.Request
	var id uint64
	submit := func(typ iface.ReqType, lpn iface.LPN) *iface.Request {
		id++
		r := &iface.Request{ID: id, Type: typ, LPN: lpn, Source: iface.SourceApp, Submitted: eng.Now()}
		ctl.Submit(r)
		return r
	}
	cfg := Config{
		Geometry:      flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 24, PagesPerBlock: 8, PageSize: 4096},
		Timing:        flash.TimingSLC(),
		Overprovision: 0.2,
		GCGreediness:  2,
		WL:            WLOff(),
		Policy:        &sched.Deadline{ReadDeadline: 1}, // every queued read is overdue; a trim never is
		OnComplete: func(r *iface.Request) {
			if r == busy {
				// The LUN's first completion wakes the class and dispatches the
				// first read; the trim arrives while that one is in flight.
				eng.ScheduleAfter(sim.Microsecond, func() { trim = submit(iface.Trim, third.LPN) })
			}
		},
	}
	var err error
	ctl, err = New(eng, iface.NewBus(), stats.NewCollector(0, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := 0; lpn < 64; lpn++ {
		submit(iface.Write, iface.LPN(lpn))
	}
	eng.RunUntilIdle()
	var onLUN []iface.LPN // four pages of one LUN
	for lpn := 0; lpn < 64 && len(onLUN) < 4; lpn++ {
		if ppa, ok := ctl.mapper.Lookup(iface.LPN(lpn)); ok && ppa.LUN == 0 {
			onLUN = append(onLUN, iface.LPN(lpn))
		}
	}
	if len(onLUN) < 4 {
		t.Fatalf("only %d of 64 filled pages sit on LUN 0", len(onLUN))
	}
	busy = submit(iface.Read, onLUN[0])
	eng.ScheduleAfter(sim.Microsecond, func() {
		first, second, third = submit(iface.Read, onLUN[1]), submit(iface.Read, onLUN[2]), submit(iface.Read, onLUN[3])
	})
	eng.RunUntilIdle()
	if err := ctl.checkQuiescent(); err != nil {
		t.Fatalf("not quiescent after drain: %v", err)
	}
	if trim == nil || !(first.Dispatched < trim.Submitted && trim.Submitted < first.Completed) {
		t.Fatalf("the trim did not arrive while the first read held the LUN: first %v..%v, trim %+v", first.Dispatched, first.Completed, trim)
	}
	if want := trim.Completed.Add(cfg.Timing.Cmd); third.Completed != want {
		t.Errorf("read unmapped at %v completed at %v, want %v: it slept on in the class of a LUN it no longer waits for (first read done %v, second %v)",
			trim.Completed, third.Completed, want, first.Completed, second.Completed)
	}
}
