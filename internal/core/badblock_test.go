package core

import (
	"context"
	"errors"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/fault"
	"eagletree/internal/flash"
	"eagletree/internal/iface"
	"eagletree/internal/workload"
)

func TestBadBlocksShrinkCapacity(t *testing.T) {
	clean := testConfig()
	faulty := testConfig()
	faulty.Controller.BadBlockFraction = 0.1
	faulty.Controller.BadBlockSeed = 3

	sc, err := New(clean)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := New(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if sf.LogicalPages() >= sc.LogicalPages() {
		t.Fatalf("faulty device exports %d pages, clean %d", sf.LogicalPages(), sc.LogicalPages())
	}
}

func TestBadBlocksSurviveFullWorkload(t *testing.T) {
	cfg := testConfig()
	cfg.Controller.BadBlockFraction = 0.1
	cfg.Controller.BadBlockSeed = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.LogicalPages())
	// Fill, overwrite randomly (forcing GC around the bad blocks), then
	// verify every LPN still readable.
	seq := s.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: 16})
	over := s.Add(&workload.RandomWriter{From: 0, Space: n, Count: 2 * n, Depth: 16}, seq)
	barrier := s.AddBarrier(over)
	s.Add(&workload.SequentialReader{From: 0, Count: n, Depth: 16}, barrier)
	s.Run()
	if !s.Runner.Done() {
		t.Fatal("workload hung on a bad-block device")
	}
	if got := s.Controller.Counters().UnmappedReads; got != 0 {
		t.Fatalf("%d LPNs lost on a bad-block device", got)
	}
	rep := s.Report()
	if rep.Wear.BadBlocks == 0 {
		t.Fatal("report shows no bad blocks despite injection")
	}
	// No bad block may ever have been programmed.
	geo := cfg.Controller.Geometry
	cols := s.Controller.Array().Columns()
	for lun := 0; lun < geo.LUNs(); lun++ {
		for blk := 0; blk < geo.BlocksPerLUN; blk++ {
			i := geo.BlockIndex(flash.BlockID{LUN: lun, Block: blk})
			if cols.Bad[i] && cols.WritePtr[i] != 0 {
				t.Fatalf("bad block lun%d/blk%d was programmed", lun, blk)
			}
		}
	}
}

func TestBadBlockFractionValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Controller.BadBlockFraction = 0.9
	if _, err := New(cfg); err == nil {
		t.Fatal("90% bad blocks accepted")
	}
}

func TestBadBlocksDeterministic(t *testing.T) {
	mk := func() int {
		cfg := testConfig()
		cfg.Controller.BadBlockFraction = 0.15
		cfg.Controller.BadBlockSeed = 11
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.LogicalPages()
	}
	if mk() != mk() {
		t.Fatal("same seed produced different bad-block maps")
	}
}

func TestEnduranceReporting(t *testing.T) {
	cfg := testConfig()
	cfg.Controller.Timing.EnduranceLimit = 2 // absurdly low: trip it fast
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.LogicalPages())
	s.Add(&workload.RandomWriter{From: 0, Space: n, Count: 6 * n, Depth: 16})
	s.Run()
	if s.Report().Wear.PastEndurance == 0 {
		t.Fatal("no block reported past a 2-cycle endurance limit after 6 overwrite passes")
	}
}

func TestTrimmedDeviceReadsUnmapped(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := s.Add(&workload.SequentialWriter{From: 0, Count: 64, Depth: 8})
	tr := s.Add(&workload.Trimmer{From: 0, Count: 64, Depth: 8}, w)
	s.Add(&workload.SequentialReader{From: 0, Count: 64, Depth: 8}, tr)
	s.Run()
	if got := s.Controller.Counters().UnmappedReads; got != 64 {
		t.Fatalf("UnmappedReads = %d, want 64 after trim", got)
	}
	_ = iface.LPN(0)
}

// TestRunCtxWornOut: when runtime retirement empties the free pool, the loop
// drains with writers still active. RunCtx reports that as ErrNotQuiescent
// joined with the controller's typed verdict, on the uncancelable Run path
// and on the polling one alike.
func TestRunCtxWornOut(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), live} {
		cfg := testConfig()
		// 2% of erases fail and every program failure grows the block bad.
		cfg.Controller.Fault = fault.NewRandom(0.002, 0.02, 1, 11)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(s.LogicalPages())
		seq := s.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: 16})
		s.Add(&workload.RandomWriter{From: 0, Space: n, Count: 50 * n, Depth: 16}, seq)
		_, err = s.RunCtx(ctx)
		if !errors.Is(err, ErrNotQuiescent) || !errors.Is(err, controller.ErrDeviceWornOut) {
			t.Fatalf("err = %v, want both ErrNotQuiescent and controller.ErrDeviceWornOut", err)
		}
	}
}

// TestRunCtxCanceled: a canceled context comes back as the context's own
// error, unwrapped, and runs nothing.
func TestRunCtxCanceled(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Add(&workload.SequentialWriter{From: 0, Count: 64, Depth: 16})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunCtx(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled itself", err)
	}
	if got := s.Engine.Fired(); got != 0 {
		t.Fatalf("a canceled run fired %d events", got)
	}
}
