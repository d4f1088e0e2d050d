package controller

import (
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
	"eagletree/internal/wl"
)

// wlRig builds a controller with static wear leveling armed aggressively.
func wlRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	return newRig(t, func(cfg *Config) {
		w := wl.DefaultConfig()
		w.Static = true
		w.Dynamic = false
		w.CheckInterval = 2 * sim.Millisecond
		w.AgeSlack = 2
		w.IdleFactor = 2
		w.MaxMigrationsPerScan = 2
		cfg.WL = w
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// hammerHotKeepCold writes a cold region once, then overwrites a small hot
// region many times: the recipe that leaves young, idle, cold blocks for
// static WL to find.
func hammerHotKeepCold(r *rig, passes int) {
	n := r.ctl.LogicalPages()
	coldEnd := iface.LPN(n / 2)
	for lpn := iface.LPN(0); lpn < coldEnd; lpn++ {
		r.submit(iface.Write, lpn)
		if lpn%16 == 15 {
			r.run()
		}
	}
	r.run()
	hot := iface.LPN(n / 8)
	for p := 0; p < passes; p++ {
		for lpn := coldEnd; lpn < coldEnd+hot; lpn++ {
			r.submit(iface.Write, lpn)
			if lpn%16 == 15 {
				r.run()
			}
		}
		r.run()
	}
}

func TestStaticWLMigratesColdBlocks(t *testing.T) {
	r := wlRig(t, nil)
	hammerHotKeepCold(r, 30)
	if got := r.ctl.Counters().WLMigratedPages; got == 0 {
		t.Fatal("static wear leveling never migrated a page despite hot/cold skew")
	}
	if r.ctl.Leveler().Scans() == 0 {
		t.Fatal("static WL scan never ran")
	}
}

func TestStaticWLNarrowsWear(t *testing.T) {
	spread := func(static bool) int {
		r := wlRig(t, func(cfg *Config) { cfg.WL.Static = static })
		hammerHotKeepCold(r, 30)
		minE, maxE := 1<<30, -1
		bm := r.ctl.BlockManager()
		cols, perLUN := bm.Columns(), r.ctl.Array().Geometry().BlocksPerLUN
		for lun := 0; lun < bm.LUNs(); lun++ {
			for i := lun*perLUN + bm.ReservedTrans(); i < (lun+1)*perLUN; i++ {
				if cols.Bad[i] {
					continue
				}
				ec := int(cols.EraseCount[i])
				if ec < minE {
					minE = ec
				}
				if ec > maxE {
					maxE = ec
				}
			}
		}
		return maxE - minE
	}
	with, without := spread(true), spread(false)
	if with >= without {
		t.Fatalf("static WL spread %d not below WL-off spread %d", with, without)
	}
}

func TestStaticWLScanGoesQuietWhenIdle(t *testing.T) {
	r := wlRig(t, nil)
	r.submit(iface.Write, 1)
	r.run()
	// The run drained: the scan must have disarmed itself (engine idle),
	// otherwise RunUntilIdle above would never have returned. A further
	// submission must re-arm it.
	scans := r.ctl.Leveler().Scans()
	r.submit(iface.Write, 2)
	r.run()
	if r.ctl.Leveler().Scans() < scans {
		t.Fatal("scan counter went backwards")
	}
	if r.eng.Pending() != 0 {
		t.Fatalf("%d events still pending after idle: WL scan leaks events", r.eng.Pending())
	}
}

func TestWLMigratedPagesInferredCold(t *testing.T) {
	r := wlRig(t, nil)
	hammerHotKeepCold(r, 30)
	if len(r.ctl.wlCold) == 0 {
		t.Fatal("no pages recorded as WL-inferred cold after static migrations")
	}
	// Touching an inferred-cold page clears the inference (the page proved
	// itself non-cold).
	var lpn iface.LPN
	for l := range r.ctl.wlCold {
		lpn = l
		break
	}
	r.submit(iface.Write, lpn)
	r.run()
	if _, still := r.ctl.wlCold[lpn]; still {
		t.Fatal("application write did not clear the WL-cold inference")
	}
}

func TestControllerAccessors(t *testing.T) {
	r := wlRig(t, nil)
	if r.ctl.GCCollector() == nil || r.ctl.Leveler() == nil {
		t.Fatal("nil subsystem accessors")
	}
	if r.ctl.QueueLen() != 0 {
		t.Fatalf("fresh controller queue length %d", r.ctl.QueueLen())
	}
	if MapPageRAM.String() != "pagemap" || MapDFTL.String() != "dftl" {
		t.Error("mapping scheme strings wrong")
	}
	if rep := r.ctl.Memory().Report(); rep == "" {
		t.Error("empty memory report")
	}
}
