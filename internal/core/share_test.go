package core_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/fault"
	"eagletree/internal/flash"
	"eagletree/internal/hotcold"
	"eagletree/internal/osched"
	"eagletree/internal/sim"
	"eagletree/internal/snapshot"
	"eagletree/internal/wl"
	"eagletree/internal/workload"
)

// sharedVariant is one way of continuing from a prepared device: a
// configuration structurally compatible with the one it was prepared under,
// and a workload. Configurations hold mutable policy, detector and fault-
// model instances, so each stack gets a fresh one.
type sharedVariant struct {
	name string
	cfg  func() core.Config
	load func(s *core.Stack)
	// did reports whether the run exercised what the variant is here for;
	// nil accepts any run that changed the device.
	did func(r core.Report) bool
}

func faulted(r core.Report) bool { return r.Retries > 0 && r.GrownBadBlocks > 0 && r.EraseFailures > 0 }

func with(base func() core.Config, edit func(*core.Config)) func() core.Config {
	return func() core.Config {
		cfg := base()
		edit(&cfg)
		return cfg
	}
}

func writes(count int64) func(*core.Stack) {
	return func(s *core.Stack) {
		s.Add(&workload.RandomWriter{From: 0, Space: int64(s.LogicalPages()), Count: count, Depth: 8})
	}
}

func reads(s *core.Stack) {
	s.Add(&workload.RandomReader{From: 0, Space: int64(s.LogicalPages()), Count: 400, Depth: 8})
}

func trimThenWrite(s *core.Stack) {
	trim := s.Add(&workload.Trimmer{From: 0, Count: 300, Depth: 4})
	s.Add(&workload.ReadWriteMix{From: 0, Space: int64(s.LogicalPages()), Count: 800, ReadFraction: 0.3, Depth: 8}, trim)
}

// mbfCfg is pagemapCfg prepared under the MBF detector, so variants may keep
// or drop it.
func mbfCfg() core.Config {
	cfg := pagemapCfg()
	cfg.Controller.Detector = hotcold.NewMBF(hotcold.DefaultMBFConfig())
	return cfg
}

func pageMapVariants() []sharedVariant {
	wlOn := wl.DefaultConfig()
	wlOn.CheckInterval = 2 * sim.Millisecond
	return []sharedVariant{
		{"read-only", pagemapCfg, reads, func(core.Report) bool { return true }},
		{"gc-to-the-floor", with(pagemapCfg, func(c *core.Config) { c.Controller.GCGreediness = 4 }), writes(3000),
			func(r core.Report) bool { return r.GCMigratedPages > 0 }},
		{"static+dynamic-wl", with(pagemapCfg, func(c *core.Config) { c.Controller.WL = wlOn }), writes(3000),
			func(r core.Report) bool { return r.WLMigratedPages > 0 }},
		// Reads only under a raised GC target: the restore kick starts
		// collection, so the first page-state writes are copybacks.
		{"copyback-first", with(pagemapCfg, func(c *core.Config) {
			c.Controller.Features.Copyback = true
			c.Controller.GCCopyback = true
			c.Controller.GCGreediness = 4
		}), reads, func(r core.Report) bool { return r.GCMigratedPages > 0 && r.WriteLatency.Count == 0 }},
		{"mbf-streams", mbfCfg, writes(2500), nil},
		{"random-faults", with(pagemapCfg, func(c *core.Config) {
			c.Controller.Fault = fault.NewRandom(0.01, 0.005, 0.1, 3)
		}), writes(1500), faulted},
		// The one-shot model fails the first program it is asked about, so the
		// stack's first page-state write is the burn, and it retires the block.
		{"burn-first", with(pagemapCfg, func(c *core.Config) {
			c.Controller.Fault = &fault.At{AtTime: 1, Grown: true}
		}), writes(500), func(r core.Report) bool { return r.Retries == 1 && r.GrownBadBlocks == 1 }},
		{"trim-first", pagemapCfg, trimThenWrite, nil},
	}
}

func dftlVariants() []sharedVariant {
	return []sharedVariant{
		{"dftl-read-only", richCfg, reads, func(core.Report) bool { return true }},
		{"dftl-wl-mbf-buffer", richCfg, measured, nil},
		{"dftl-random-faults", with(richCfg, func(c *core.Config) {
			c.Controller.Fault = fault.NewRandom(0.01, 0.005, 0.1, 3)
		}), writes(1500), faulted},
		{"dftl-trim-first", richCfg, trimThenWrite, nil},
	}
}

// outcome is everything a continued run leaves behind.
type outcome struct {
	report core.Report
	state  []byte // the stack's own re-Snapshot, encoded
}

func continueFrom(t *testing.T, v sharedVariant, ds *snapshot.DeviceState) outcome {
	st, err := core.Restore(v.cfg(), ds)
	if err != nil {
		t.Errorf("%s: %v", v.name, err)
		return outcome{}
	}
	st.MarkMeasurement()
	v.load(st)
	st.Run()
	if !st.Runner.Done() {
		t.Errorf("%s: %d threads never finished (health: %v)", v.name, st.Runner.Active(), st.Controller.Health())
		return outcome{}
	}
	after, err := st.Snapshot()
	if err != nil {
		t.Errorf("%s: %v", v.name, err)
		return outcome{}
	}
	return outcome{report: st.Report(), state: snapshot.Encode(after)}
}

// TestRestoreSharesUntilWrite is the safety net under copy-on-write restore.
// Every stack restored from one decoded state shares its page-state and
// page-map columns until it writes; none may ever write through. One decoded
// state is continued by write-heavy variants — page map and DFTL, GC driven
// to the floor, static and dynamic wear leveling, copyback migration, MBF
// stream separation, random program and erase faults that burn pages and
// retire blocks, trims — one after another and then all at once (which is
// what the race detector is pointed at: CI runs this under -race -short).
// Afterwards the shared state must encode to the bytes it was decoded from,
// and every stack's Report and re-Snapshot must equal those of a twin
// restored from a private decode.
func TestRestoreSharesUntilWrite(t *testing.T) {
	for _, tc := range []struct {
		name     string
		prepared func() core.Config
		variants []sharedVariant
	}{
		{"pagemap", mbfCfg, pageMapVariants()},
		{"dftl", richCfg, dftlVariants()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := core.New(tc.prepared())
			if err != nil {
				t.Fatal(err)
			}
			prepare(prep)
			prep.Run()
			ds, err := prep.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			orig := snapshot.Encode(ds)
			shared, err := snapshot.Decode(orig)
			if err != nil {
				t.Fatal(err)
			}
			intact := func(when string) {
				t.Helper()
				if !bytes.Equal(snapshot.Encode(shared), orig) {
					t.Fatalf("%s the shared state no longer encodes to the bytes it was decoded from", when)
				}
			}

			twins := make([]outcome, len(tc.variants))
			for i, v := range tc.variants {
				private, err := snapshot.Decode(orig)
				if err != nil {
					t.Fatal(err)
				}
				twins[i] = continueFrom(t, v, private)
				if twins[i].state == nil {
					t.FailNow()
				}
				if v.did == nil && bytes.Equal(twins[i].state, orig) {
					t.Fatalf("%s left the device as it found it: the variant writes nothing", v.name)
				}
				if v.did != nil && !v.did(twins[i].report) {
					t.Fatalf("%s did not do what it is here for:\n%+v", v.name, twins[i].report)
				}
			}
			check := func(i int, got outcome, how string) {
				if !reflect.DeepEqual(got.report, twins[i].report) {
					t.Errorf("%s, %s: report differs from the privately restored twin's:\nshared:  %+v\nprivate: %+v",
						tc.variants[i].name, how, got.report, twins[i].report)
				}
				if !bytes.Equal(got.state, twins[i].state) {
					t.Errorf("%s, %s: final device state differs from the privately restored twin's", tc.variants[i].name, how)
				}
			}

			for i, v := range tc.variants {
				check(i, continueFrom(t, v, shared), "sequential")
				intact("after " + v.name + ",")
			}

			var wg sync.WaitGroup
			got := make([]outcome, len(tc.variants))
			for i, v := range tc.variants {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = continueFrom(t, v, shared)
				}()
			}
			wg.Wait()
			for i := range got {
				check(i, got[i], "concurrent")
			}
			intact("after the concurrent round")
		})
	}
}

// TestRestoreReadOnlyAllocates: on the 2 GiB-class geometry the two stored
// columns are 2.3 MB; a restore that shares them allocates only the small
// state — block columns, buckets, free pools, reservation lists — and a run
// that only reads allocates neither them nor the derived reverse column.
func TestRestoreReadOnlyAllocates(t *testing.T) {
	cfg := func() core.Config {
		return core.Config{
			Controller: controller.Config{
				Geometry:      flash.Geometry{Channels: 4, LUNsPerChannel: 4, BlocksPerLUN: 512, PagesPerBlock: 64, PageSize: 4096},
				Overprovision: 0.15,
				WL:            controller.WLOff(),
			},
			OS:   osched.Config{QueueDepth: 32},
			Seed: 7,
		}
	}
	prep, err := core.New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	prep.Add(&workload.SequentialWriter{From: 0, Count: 20000, Depth: 32})
	prep.Run()
	ds, err := prep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	orig := snapshot.Encode(ds)
	columns := uint64(len(ds.Controller.Array.Pages) + 4*len(ds.Controller.PageMap.Forward))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := core.Restore(cfg(), ds)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	restoreBytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("core.Restore allocated %d bytes beside %d bytes of shared columns", restoreBytes, columns)
	if restoreBytes >= 1<<20 {
		t.Fatalf("core.Restore allocated %d bytes, want < 1 MiB: a big column was copied", restoreBytes)
	}

	st.MarkMeasurement()
	st.Add(&workload.RandomReader{From: 0, Space: 20000, Count: 500, Depth: 16})
	runtime.ReadMemStats(&before)
	st.Run()
	runtime.ReadMemStats(&after)
	if !st.Runner.Done() || st.Report().ReadLatency.Count != 500 {
		t.Fatalf("read-only variant completed %d of 500 reads", st.Report().ReadLatency.Count)
	}
	if run := after.TotalAlloc - before.TotalAlloc; run >= columns/2 {
		t.Fatalf("500 reads allocated %d bytes: a read copied a shared column", run)
	}
	if !bytes.Equal(snapshot.Encode(ds), orig) {
		t.Fatal("the snapshot changed under a read-only run")
	}
}
