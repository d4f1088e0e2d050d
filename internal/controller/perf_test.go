package controller

import (
	"testing"

	"eagletree/internal/flash"
	"eagletree/internal/iface"
	"eagletree/internal/sim"
	"eagletree/internal/stats"
)

// perfRig builds a controller with a pre-filled logical space, outside any
// testing.T so benchmarks and alloc guards share it.
func perfRig(tb testing.TB) *rig {
	tb.Helper()
	r := &rig{eng: sim.NewEngine(), bus: iface.NewBus(), col: stats.NewCollector(0, 0)}
	cfg := Config{
		Geometry:      flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 64, PagesPerBlock: 32, PageSize: 4096},
		Timing:        flash.TimingSLC(),
		Overprovision: 0.2,
		GCGreediness:  2,
		WL:            WLOff(),
	}
	ctl, err := New(r.eng, r.bus, r.col, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r.ctl = ctl
	// Fill the logical space so reads hit mapped pages and overwrites
	// exercise invalidation and, at the floor, garbage collection.
	for lpn := 0; lpn < ctl.LogicalPages(); lpn++ {
		r.id++
		ctl.Submit(&iface.Request{ID: r.id, Type: iface.Write, LPN: iface.LPN(lpn), Source: iface.SourceApp})
		if lpn%64 == 63 {
			r.eng.RunUntilIdle()
		}
	}
	r.eng.RunUntilIdle()
	return r
}

// TestDispatchAllocsPerIO guards the controller's allocation budget through
// Submit, dispatch, flash scheduling, completion and the GC runs they set
// off. Requests are recycled here as the workload Runner recycles them, and
// the controller recycles its own request states, internal requests, GC run
// records and parked-read lists, so what allocates is only container growth
// while pools and queues still reach their high-water marks: about 28
// objects per 256-IO batch after two warm-up batches, budgeted at 32 (0.125
// per IO). TestSteadyStateAllocsPerIO in internal/core holds the whole stack
// to none per IO once warm.
func TestDispatchAllocsPerIO(t *testing.T) {
	r := perfRig(t)
	const batch = 256
	reqs := make([]*iface.Request, batch)
	for i := range reqs {
		reqs[i] = &iface.Request{}
	}
	rng := sim.NewRNG(42)
	space := int64(r.ctl.LogicalPages())
	runBatch := func() {
		for i, req := range reqs {
			r.id++
			typ := iface.Read
			if i%2 == 0 {
				typ = iface.Write
			}
			*req = iface.Request{ID: r.id, Type: typ, LPN: iface.LPN(rng.Int63() % space), Source: iface.SourceApp}
			r.ctl.Submit(req)
			if i%32 == 31 {
				r.eng.RunUntilIdle()
			}
		}
		r.eng.RunUntilIdle()
	}
	runBatch() // warm pools: states, events, queue and stats capacity
	runBatch()
	allocs := testing.AllocsPerRun(10, runBatch)
	perIO := allocs / batch
	const budget = 32.0 / batch
	if perIO > budget {
		t.Fatalf("dispatch path allocates %.3f objects per IO, budget is %.3f", perIO, budget)
	}
	t.Logf("dispatch path: %.3f allocs per IO (budget %.3f)", perIO, budget)
}

// BenchmarkControllerDispatch measures the full per-IO dispatch cost on a
// steady-state device: submit, readiness scan, flash scheduling, completion
// and GC bookkeeping, at a queue depth of 32.
func BenchmarkControllerDispatch(b *testing.B) {
	r := perfRig(b)
	rng := sim.NewRNG(7)
	space := int64(r.ctl.LogicalPages())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.id++
		typ := iface.Read
		if i%2 == 0 {
			typ = iface.Write
		}
		r.ctl.Submit(&iface.Request{ID: r.id, Type: typ, LPN: iface.LPN(rng.Int63() % space), Source: iface.SourceApp})
		if i%32 == 31 {
			r.eng.RunUntilIdle()
		}
	}
	r.eng.RunUntilIdle()
}
