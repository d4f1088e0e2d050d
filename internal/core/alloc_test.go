package core_test

import (
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/sim"
	"eagletree/internal/trace"
	"eagletree/internal/wl"
	"eagletree/internal/workload"
)

// forever is a thread IO count no measurement reaches: the measured thread
// stays alive, and the guard slices its run into equal spans of virtual time.
const forever = 1 << 62

// steadyStack builds a filled device under cfg and registers the measured
// thread after the fill, returning once the fill has drained.
func steadyStack(t *testing.T, cfg core.Config, measured workload.Thread) *core.Stack {
	t.Helper()
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill := s.Add(&workload.SequentialWriter{From: 0, Count: int64(s.LogicalPages()), Depth: 16})
	s.Add(measured, fill)
	return s
}

// guardCfg is a small page-mapped device whose measured runs reach GC.
func guardCfg() core.Config {
	return core.Config{
		Controller: controller.Config{
			Geometry:      flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 48, PagesPerBlock: 16, PageSize: 4096},
			Overprovision: 0.15,
			GCGreediness:  2,
			WL:            controller.WLOff(),
		},
		OS:   osched.Config{QueueDepth: 16},
		Seed: 5,
	}
}

// TestSteadyStateAllocsPerIO is the whole-stack hot-path guard: once pools
// are warm, an application IO allocates nothing on its way from the thread
// through the OS, the controller, the flash array and back to the thread's
// completion callback — nor do the GC and static-WL runs, the DFTL
// translation traffic, the workload timers and the write-buffer flushes it
// sets off.
func TestSteadyStateAllocsPerIO(t *testing.T) {
	// A slow open-loop trace, paced by the replay thread's Ctx.Schedule
	// timers: one write a millisecond of trace time, fewer than the device
	// completes, so the OS queue stays short.
	replayTrace := &trace.Trace{Records: make([]trace.Record, 40000)}
	for i := range replayTrace.Records {
		replayTrace.Records[i] = trace.Record{
			At:   sim.Time(i) * sim.Time(sim.Millisecond),
			Op:   iface.Write,
			LPN:  iface.LPN(i*7919) % 2000,
			Size: 1,
		}
	}
	cases := []struct {
		name     string
		cfg      func() core.Config
		measured workload.Thread
		// mechanism counts the work the case exists to cover; it must grow
		// while allocations are counted.
		mechanism func(*core.Stack) uint64
	}{
		{"zipf-gc-static-wl", func() core.Config {
			cfg := guardCfg()
			cfg.Controller.WL = wl.DefaultConfig()
			cfg.Controller.WL.CheckInterval = 2 * sim.Millisecond
			cfg.Controller.WL.AgeSlack = 1
			return cfg
		}, &workload.ZipfWriter{Space: 2000, Count: forever, Depth: 16, Scramble: true},
			func(s *core.Stack) uint64 { return s.Controller.Counters().WLMigratedPages }},
		{"replay-open-loop", guardCfg, &workload.Replay{Trace: replayTrace, Mode: workload.ReplayOpenLoop},
			func(s *core.Stack) uint64 { return s.OS.Stats().Submitted }},
		{"dftl", func() core.Config {
			cfg := guardCfg()
			cfg.Controller.Mapping = controller.MapDFTL
			cfg.Controller.CMTEntries = 256
			cfg.Controller.ReservedTransBlocks = 3
			return cfg
		}, &workload.ReadWriteMix{Space: 2000, Count: forever, ReadFraction: 0.5, Depth: 16},
			func(s *core.Stack) uint64 { return s.Controller.Mapper().(*ftl.DFTL).Stats().TransReads }},
		{"write-buffer", func() core.Config {
			cfg := guardCfg()
			cfg.Controller.WriteBufferPages = 8
			return cfg
		}, &workload.ReadWriteMix{Space: 2000, Count: forever, ReadFraction: 0.3, Depth: 16},
			func(s *core.Stack) uint64 { return s.Controller.Counters().BufferedWrites }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := steadyStack(t, tc.cfg(), tc.measured)
			const span = 200 * sim.Millisecond
			run := func() { s.Engine.Run(s.Engine.Now().Add(span)) }
			s.Runner.Start()
			for i := 0; i < 40; i++ { // the fill, then warm pools and queues
				run()
			}
			ios0, gc0, mech0 := s.OS.Stats().Completed, s.Controller.Counters().GCErases, tc.mechanism(s)
			const runs = 20
			allocs := testing.AllocsPerRun(runs, run)
			ios := float64(s.OS.Stats().Completed-ios0) / (runs + 1) // AllocsPerRun warms up once
			if ios < 100 {
				t.Fatalf("only %.0f IOs per run: the guard measures nothing", ios)
			}
			if gc := s.Controller.Counters().GCErases; gc == gc0 || tc.mechanism(s) == mech0 {
				t.Fatalf("the measured runs erased %d GC victims and moved the covered mechanism's count %d -> %d: the guard does not reach it", gc-gc0, mech0, tc.mechanism(s))
			}
			t.Logf("%.0f allocs per %.0f IOs", allocs, ios)
			if allocs != 0 {
				t.Fatalf("steady state allocates %.0f objects per %.0f application IOs (%.3f per IO), want 0", allocs, ios, allocs/ios)
			}
		})
	}
}
