package core_test

import (
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
	"eagletree/internal/snapshot"
	"eagletree/internal/wl"
	"eagletree/internal/workload"
)

// pagemapCfg returns a small page-mapped configuration. A fresh value per
// call: policy, allocator and detector instances are mutable and must not be
// shared between stacks.
func pagemapCfg() core.Config {
	return core.Config{
		Controller: controller.Config{
			Geometry:      flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 48, PagesPerBlock: 16, PageSize: 4096},
			Overprovision: 0.15,
			GCGreediness:  2,
			WL:            controller.WLOff(),
		},
		OS:   osched.Config{QueueDepth: 16},
		Seed: 11,
	}
}

// richCfg exercises every stateful component the snapshot layer captures:
// DFTL with its CMT and translation ring, static+dynamic wear leveling, the
// MBF hot-data detector, a write buffer, the round-robin allocator and the
// random GC victim policy.
func richCfg() core.Config {
	wlCfg := wl.DefaultConfig()
	wlCfg.CheckInterval = 2 * sim.Millisecond
	return core.Config{
		Controller: controller.Config{
			Geometry:            flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 48, PagesPerBlock: 16, PageSize: 4096},
			Mapping:             controller.MapDFTL,
			CMTEntries:          256,
			ReservedTransBlocks: 3,
			Overprovision:       0.15,
			GCGreediness:        2,
			GCPolicy:            &gc.Random{},
			WL:                  wlCfg,
			Alloc:               &sched.RoundRobin{},
			Detector:            hotcold.NewMBF(hotcold.DefaultMBFConfig()),
			WriteBufferPages:    8,
			OpenInterface:       true,
		},
		OS:   osched.Config{QueueDepth: 16},
		Seed: 23,
	}
}

// prepare registers the fill-and-age preparation threads.
func prepare(s *core.Stack) {
	n := int64(s.LogicalPages())
	seq := s.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: 16})
	s.Add(&workload.RandomWriter{From: 0, Space: n, Count: n, Depth: 16}, seq)
}

// measured registers the measured workload threads.
func measured(s *core.Stack) {
	n := int64(s.LogicalPages())
	s.Add(&workload.ReadWriteMix{From: 0, Space: n, Count: 600, ReadFraction: 0.5, Depth: 8})
	s.Add(&workload.RandomWriter{From: 0, Space: n, Count: 300, Depth: 8})
}

// TestSnapshotContinuationMatchesDirect is the snapshot layer's core
// contract: preparing a device, snapshotting it, restoring the snapshot into
// a fresh stack and running the measured workload there must be bit-identical
// to preparing and measuring in one continuous stack. Any state the snapshot
// fails to carry — mapping tables, CMT order, free-list order, reservation
// tails, RNG streams, engine clock or sequence counter — shows up here as a
// report divergence.
func TestSnapshotContinuationMatchesDirect(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() core.Config
	}{
		{"pagemap", pagemapCfg},
		{"dftl-wl-mbf-buffer", richCfg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Direct: prepare and measure on one stack.
			direct, err := core.New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			prepare(direct)
			direct.Run()
			if !direct.Runner.Done() {
				t.Fatal("direct preparation did not drain")
			}
			direct.MarkMeasurement()
			measured(direct)
			direct.Run()
			want := direct.Report()

			// Snapshot: prepare on one stack, measure on a restored one, with
			// an encode/decode round trip in between (what the state cache and
			// -save-state/-load-state actually exercise).
			prep, err := core.New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			prepare(prep)
			prep.Run()
			ds, err := prep.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := snapshot.Decode(snapshot.Encode(ds))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := core.Restore(tc.cfg(), decoded)
			if err != nil {
				t.Fatal(err)
			}
			if got, wantNow := restored.Engine.Now(), prep.Engine.Now(); got != wantNow {
				t.Fatalf("restored clock %v, prepared stack at %v", got, wantNow)
			}
			restored.MarkMeasurement()
			measured(restored)
			restored.Run()
			if !restored.Runner.Done() {
				t.Fatal("restored run did not drain")
			}
			got := restored.Report()

			if !reflect.DeepEqual(want, got) {
				t.Fatalf("restored report differs from direct continuation:\ndirect:   %+v\nrestored: %+v", want, got)
			}
		})
	}
}

// completionLog wraps a measured thread and logs every completion it sees,
// in order.
type completionLog struct {
	workload.Thread
	log *[]iface.Request
}

func (c completionLog) OnComplete(ctx *workload.Ctx, r *iface.Request) {
	*c.log = append(*c.log, *r)
	c.Thread.OnComplete(ctx, r)
}

// TestTrimmedReservationsRestoreIdentically: a snapshot keeps of each
// channel's and LUN's reservations only those ending after the snapshot's
// instant, and the last one. A stack restored from it must run exactly as
// one restored from the whole history since the last prune: the same
// completions in the same order at the same instants, the same counters and
// Report, and the same state at the end.
func TestTrimmedReservationsRestoreIdentically(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() core.Config
	}{
		{"pagemap", pagemapCfg},
		{"dftl-wl-mbf-buffer", richCfg},
		// LeastLoaded ranks idle LUNs by when their last reservation ended,
		// which only the kept last interval can tell.
		{"leastloaded", func() core.Config {
			cfg := pagemapCfg()
			cfg.Controller.Alloc = sched.LeastLoaded{}
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := core.New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			prepare(prep)
			prep.Run()
			// End the preparation on LUN 0, so that the LUN whose last
			// reservation ended latest is the one index order ranks first.
			for lpn := iface.LPN(0); ; lpn++ {
				if ppa, ok := prep.Controller.Mapper().Lookup(lpn); ok && ppa.LUN == 0 {
					prep.Add(&workload.Func{F: func(ctx *workload.Ctx) { ctx.Read(lpn) }})
					break
				}
			}
			prep.Run()
			trimmed, err := prep.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			full := *trimmed
			whole := prep.Controller.Array().State(0) // every interval ends after 0
			full.Controller.Array.Channels, full.Controller.Array.LUNs = whole.Channels, whole.LUNs
			count := func(rs []flash.ResourceState) (n int) {
				for _, r := range rs {
					n += len(r.Intervals)
				}
				return n
			}
			nt := count(trimmed.Controller.Array.Channels) + count(trimmed.Controller.Array.LUNs)
			nf := count(whole.Channels) + count(whole.LUNs)
			if nf <= nt {
				t.Fatalf("the history holds %d intervals and the snapshot %d: nothing was trimmed", nf, nt)
			}

			type outcome struct {
				log    []iface.Request
				report core.Report
				ctl    controller.Counters
				flash  flash.Counters
				fired  uint64
				end    []byte
			}
			run := func(ds *snapshot.DeviceState) outcome {
				decoded, err := snapshot.Decode(snapshot.Encode(ds))
				if err != nil {
					t.Fatal(err)
				}
				s, err := core.Restore(tc.cfg(), decoded)
				if err != nil {
					t.Fatal(err)
				}
				var o outcome
				n := int64(s.LogicalPages())
				s.MarkMeasurement()
				s.Add(completionLog{&workload.ReadWriteMix{From: 0, Space: n, Count: 600, ReadFraction: 0.5, Depth: 8}, &o.log})
				s.Add(completionLog{&workload.RandomWriter{From: 0, Space: n, Count: 300, Depth: 8}, &o.log})
				s.Run()
				end, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				o.report, o.ctl, o.flash = s.Report(), s.Controller.Counters(), s.Controller.Array().Counters()
				o.fired, o.end = s.Engine.Fired(), snapshot.Encode(end)
				return o
			}
			want, got := run(&full), run(trimmed)
			if len(want.log) != 900 {
				t.Fatalf("%d completions, want 900", len(want.log))
			}
			for i := range want.log {
				if i >= len(got.log) || got.log[i] != want.log[i] {
					t.Fatalf("completion %d differs: from the whole history %+v, from the trimmed one %+v", i, want.log[i], got.log[min(i, len(got.log)-1)])
				}
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("restoring the trimmed reservations diverged from restoring the whole history:\nwhole:   %+v %+v %+v %d\ntrimmed: %+v %+v %+v %d",
					want.report, want.ctl, want.flash, want.fired, got.report, got.ctl, got.flash, got.fired)
			}
		})
	}
}

// TestSnapshotRequiresQuiescence: snapshotting a stack with undrained work
// must fail, not silently drop the pending events or threads.
func TestSnapshotRequiresQuiescence(t *testing.T) {
	s, err := core.New(pagemapCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Add(&workload.SequentialWriter{From: 0, Count: 32, Depth: 4})
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot of a stack with an unfinished thread succeeded")
	}
	s.Run()
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot of a drained stack failed: %v", err)
	}
	s.Engine.Schedule(s.Engine.Now().Add(sim.Millisecond), func() {})
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot with a pending event succeeded")
	}
}

// TestRestoreRejectsMismatch: restoring into a structurally different
// configuration must fail loudly.
func TestRestoreRejectsMismatch(t *testing.T) {
	s, err := core.New(pagemapCfg())
	if err != nil {
		t.Fatal(err)
	}
	prepare(s)
	s.Run()
	ds, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	geo := pagemapCfg()
	geo.Controller.Geometry.Channels = 4
	if _, err := core.Restore(geo, ds); err == nil {
		t.Fatal("restore into a different geometry succeeded")
	}

	dftl := pagemapCfg()
	dftl.Controller.Mapping = controller.MapDFTL
	if _, err := core.Restore(dftl, ds); err == nil {
		t.Fatal("restore of a page-map snapshot into a DFTL stack succeeded")
	}

	op := pagemapCfg()
	op.Controller.Overprovision = 0.4
	if _, err := core.Restore(op, ds); err == nil {
		t.Fatal("restore into a different logical capacity succeeded")
	}
}

// TestRestoreWithStricterGCKicks: a snapshot prepared under a lazy GC target
// restored under a much greedier one must not deadlock — the restore kick
// starts collection even though no write completion will arrive to do it.
func TestRestoreWithStricterGCKicks(t *testing.T) {
	s, err := core.New(pagemapCfg())
	if err != nil {
		t.Fatal(err)
	}
	prepare(s)
	s.Run()
	ds, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	greedy := pagemapCfg()
	greedy.Controller.GCGreediness = 4
	restored, err := core.Restore(greedy, ds)
	if err != nil {
		t.Fatal(err)
	}
	restored.MarkMeasurement()
	n := int64(restored.LogicalPages())
	restored.Add(&workload.RandomWriter{From: 0, Space: n, Count: n / 2, Depth: 8})
	restored.Run()
	if !restored.Runner.Done() {
		t.Fatalf("measured writes deadlocked under restored greediness: %d threads stuck", restored.Runner.Active())
	}
	rep := restored.Report()
	if rep.WriteLatency.Count == 0 {
		t.Fatal("no writes measured")
	}
}
