package wl

import (
	"testing"

	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/sim"
)

func wlGeo() flash.Geometry {
	return flash.Geometry{Channels: 1, LUNsPerChannel: 1, BlocksPerLUN: 8, PagesPerBlock: 4, PageSize: 4096}
}

// buildWornArray produces an array where blocks 0..5 are heavily cycled and
// block 6 holds live data, is young (zero erases), and long idle.
func buildWornArray(t *testing.T) (*flash.Array, *ftl.BlockManager) {
	t.Helper()
	g := wlGeo()
	a := flash.NewArray(g, flash.TimingSLC(), flash.Features{})
	// Cycle blocks 0..5 many times.
	for cycle := 0; cycle < 10; cycle++ {
		for b := 0; b < 6; b++ {
			if _, err := a.ScheduleErase(flash.BlockID{LUN: 0, Block: b}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Block 6: written once at time ~0, never erased since -> young + idle.
	for p := 0; p < g.PagesPerBlock; p++ {
		if _, err := a.ScheduleWrite(flash.PPA{LUN: 0, Block: 6, Page: p}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Fill blocks 0..5 so they are victim candidates too (recently erased,
	// so they are neither young nor idle).
	for b := 0; b < 6; b++ {
		for p := 0; p < g.PagesPerBlock; p++ {
			if _, err := a.ScheduleWrite(flash.PPA{LUN: 0, Block: b, Page: p}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a, ftl.NewBlockManager(a, 0, 1, false)
}

func TestStaticWLFindsYoungIdleBlock(t *testing.T) {
	a, bm := buildWornArray(t)
	cfg := DefaultConfig()
	lvl := NewLeveler(bm, cfg)
	// Far in the future relative to the erase activity around time 0.
	now := sim.Time(10 * sim.Second)
	victims := lvl.Victims(now)
	if len(victims) != 1 {
		t.Fatalf("victims = %v, want exactly block 6", victims)
	}
	if victims[0] != (flash.BlockID{LUN: 0, Block: 6}) {
		t.Fatalf("victim = %v, want lun0/blk6", victims[0])
	}
	if lvl.Scans() != 1 || lvl.Migrated() != 1 {
		t.Fatalf("Scans=%d Migrated=%d", lvl.Scans(), lvl.Migrated())
	}
	_ = a
}

func TestStaticWLDisabled(t *testing.T) {
	_, bm := buildWornArray(t)
	cfg := DefaultConfig()
	cfg.Static = false
	lvl := NewLeveler(bm, cfg)
	if v := lvl.Victims(sim.Time(10 * sim.Second)); v != nil {
		t.Fatalf("disabled static WL returned victims: %v", v)
	}
}

func TestStaticWLQuietOnFreshDevice(t *testing.T) {
	g := wlGeo()
	a := flash.NewArray(g, flash.TimingSLC(), flash.Features{})
	// A couple of written blocks, nothing cycled.
	for b := 0; b < 2; b++ {
		for p := 0; p < g.PagesPerBlock; p++ {
			if _, err := a.ScheduleWrite(flash.PPA{LUN: 0, Block: b, Page: p}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	bm := ftl.NewBlockManager(a, 0, 1, false)
	lvl := NewLeveler(bm, DefaultConfig())
	if v := lvl.Victims(sim.Time(1 * sim.Second)); len(v) != 0 {
		t.Fatalf("fresh device produced WL victims: %v", v)
	}
}

func TestStaticWLRespectsMigrationCap(t *testing.T) {
	g := wlGeo()
	a := flash.NewArray(g, flash.TimingSLC(), flash.Features{})
	// Cycle blocks 4..7 heavily; leave 0..2 young with live data.
	for cycle := 0; cycle < 10; cycle++ {
		for b := 4; b < 8; b++ {
			if _, err := a.ScheduleErase(flash.BlockID{LUN: 0, Block: b}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for b := 0; b < 3; b++ {
		for p := 0; p < g.PagesPerBlock; p++ {
			if _, err := a.ScheduleWrite(flash.PPA{LUN: 0, Block: b, Page: p}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	bm := ftl.NewBlockManager(a, 0, 1, false)
	cfg := DefaultConfig()
	cfg.MaxMigrationsPerScan = 2
	lvl := NewLeveler(bm, cfg)
	victims := lvl.Victims(sim.Time(10 * sim.Second))
	if len(victims) != 2 {
		t.Fatalf("got %d victims, want cap of 2", len(victims))
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.Static || !cfg.Dynamic {
		t.Error("defaults should enable both WL modes")
	}
	if cfg.CheckInterval <= 0 || cfg.IdleFactor <= 0 || cfg.MaxMigrationsPerScan <= 0 {
		t.Error("default config has non-positive knobs")
	}
}

// TestVictimsScanAllocs guards the static scan's allocation budget on a
// device where most blocks qualify as candidates: the candidate scratch lives
// on the Leveler, so a scan allocates nothing beyond the slice it returns.
func TestVictimsScanAllocs(t *testing.T) {
	g := flash.Geometry{Channels: 1, LUNsPerChannel: 1, BlocksPerLUN: 64, PagesPerBlock: 4, PageSize: 4096}
	a := flash.NewArray(g, flash.TimingSLC(), flash.Features{})
	for cycle := 0; cycle < 40; cycle++ { // blocks 0..7 carry all the wear
		for b := 0; b < 8; b++ {
			if _, err := a.ScheduleErase(flash.BlockID{LUN: 0, Block: b}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for b := 0; b < g.BlocksPerLUN; b++ { // 8..63: live data, young, long idle
		for p := 0; p < g.PagesPerBlock; p++ {
			if _, err := a.ScheduleWrite(flash.PPA{LUN: 0, Block: b, Page: p}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	lvl := NewLeveler(ftl.NewBlockManager(a, 0, 1, false), DefaultConfig())
	now := sim.Time(10 * sim.Second)
	if v := lvl.Victims(now); len(v) != 1 { // also warms the scratch
		t.Fatalf("victims = %v, want one of the 56 qualifying blocks", v)
	}
	if got := len(lvl.picks); got != 56 {
		t.Fatalf("%d candidates qualified, want 56", got)
	}
	if allocs := testing.AllocsPerRun(50, func() { lvl.Victims(now) }); allocs > 1 {
		t.Fatalf("static scan allocates %.0f objects, budget is 1 (the returned slice)", allocs)
	}
}
