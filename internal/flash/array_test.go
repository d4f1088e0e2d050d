package flash

import (
	"errors"
	"testing"

	"eagletree/internal/sim"
)

func newTestArray(feat Features) *Array {
	return NewArray(testGeo(), TimingSLC(), feat)
}

// freeBlocks counts a LUN's free blocks from the columns: not bad and
// write pointer 0.
func freeBlocks(a *Array, lun int) int {
	cols, n := a.Columns(), 0
	for i := lun * a.geo.BlocksPerLUN; i < (lun+1)*a.geo.BlocksPerLUN; i++ {
		if !cols.Bad[i] && cols.WritePtr[i] == 0 {
			n++
		}
	}
	return n
}

func TestArrayWriteReadInvalidateCycle(t *testing.T) {
	a := newTestArray(Features{})
	p := PPA{LUN: 0, Block: 0, Page: 0}

	if _, err := a.ScheduleRead(p, 0); !errors.Is(err, ErrNotValid) {
		t.Fatalf("read of free page: err = %v, want ErrNotValid", err)
	}
	if _, err := a.ScheduleWrite(p, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if a.PageState(p) != PageValid {
		t.Fatalf("page state after write = %v", a.PageState(p))
	}
	if _, err := a.ScheduleRead(p, 0); err != nil {
		t.Fatalf("read after write: %v", err)
	}
	if err := a.Invalidate(p); err != nil {
		t.Fatalf("invalidate: %v", err)
	}
	if a.PageState(p) != PageInvalid {
		t.Fatalf("page state after invalidate = %v", a.PageState(p))
	}
	if err := a.Invalidate(p); !errors.Is(err, ErrAlreadyStale) {
		t.Fatalf("double invalidate: err = %v, want ErrAlreadyStale", err)
	}
	if _, err := a.ScheduleRead(p, 0); !errors.Is(err, ErrNotValid) {
		t.Fatalf("read of stale page: err = %v, want ErrNotValid", err)
	}
}

func TestArraySequentialProgramOrder(t *testing.T) {
	a := newTestArray(Features{})
	if _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 1}, 0); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("out-of-order program: err = %v, want ErrProgramOrder", err)
	}
	for pg := 0; pg < testGeo().PagesPerBlock; pg++ {
		if _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: pg}, 0); err != nil {
			t.Fatalf("in-order program page %d: %v", pg, err)
		}
	}
	// Block full: next write must fail with program-order (WritePtr past end).
	if _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0); err == nil {
		t.Fatal("overwrite of full block accepted")
	}
}

func TestArrayEraseRequiresNoLivePages(t *testing.T) {
	a := newTestArray(Features{})
	b := BlockID{LUN: 0, Block: 0}
	p := PPA{LUN: 0, Block: 0, Page: 0}
	if _, err := a.ScheduleWrite(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ScheduleErase(b, 0); !errors.Is(err, ErrEraseLivePage) {
		t.Fatalf("erase with live page: err = %v, want ErrEraseLivePage", err)
	}
	if err := a.Invalidate(p); err != nil {
		t.Fatal(err)
	}
	sched, err := a.ScheduleErase(b, 0)
	if err != nil {
		t.Fatalf("erase: %v", err)
	}
	cols, i := a.Columns(), a.geo.BlockIndex(b)
	if cols.EraseCount[i] != 1 {
		t.Errorf("EraseCount = %d, want 1", cols.EraseCount[i])
	}
	if cols.LastErase[i] != sched.Done {
		t.Errorf("LastErase = %v, want %v", cols.LastErase[i], sched.Done)
	}
	if cols.WritePtr[i] != 0 || cols.ValidPages[i] != 0 {
		t.Errorf("erase did not reset block: write pointer %d, %d valid", cols.WritePtr[i], cols.ValidPages[i])
	}
	if a.PageState(p) != PageFree {
		t.Errorf("page state after erase = %v", a.PageState(p))
	}
	// Reprogrammable from page 0 again.
	if _, err := a.ScheduleWrite(p, sched.Done); err != nil {
		t.Fatalf("write after erase: %v", err)
	}
}

func TestArrayFreeBlockAccounting(t *testing.T) {
	g := testGeo()
	a := newTestArray(Features{})
	if freeBlocks(a, 0) != g.BlocksPerLUN {
		t.Fatalf("fresh LUN free blocks = %d, want %d", freeBlocks(a, 0), g.BlocksPerLUN)
	}
	p := PPA{LUN: 0, Block: 3, Page: 0}
	if _, err := a.ScheduleWrite(p, 0); err != nil {
		t.Fatal(err)
	}
	if freeBlocks(a, 0) != g.BlocksPerLUN-1 {
		t.Fatalf("free blocks after first write = %d, want %d", freeBlocks(a, 0), g.BlocksPerLUN-1)
	}
	// Second write to the same block must not decrement again.
	if _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 3, Page: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if freeBlocks(a, 0) != g.BlocksPerLUN-1 {
		t.Fatalf("free blocks after second write = %d", freeBlocks(a, 0))
	}
	for pg := 0; pg < 2; pg++ {
		if err := a.Invalidate(PPA{LUN: 0, Block: 3, Page: pg}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.ScheduleErase(BlockID{LUN: 0, Block: 3}, 0); err != nil {
		t.Fatal(err)
	}
	if freeBlocks(a, 0) != g.BlocksPerLUN {
		t.Fatalf("free blocks after erase = %d, want %d", freeBlocks(a, 0), g.BlocksPerLUN)
	}
}

func TestArrayMarkBad(t *testing.T) {
	a := newTestArray(Features{})
	b := BlockID{LUN: 1, Block: 0}
	before := freeBlocks(a, 1)
	a.MarkBad(b)
	if freeBlocks(a, 1) != before-1 {
		t.Fatalf("free blocks after MarkBad = %d, want %d", freeBlocks(a, 1), before-1)
	}
	a.MarkBad(b) // idempotent
	if freeBlocks(a, 1) != before-1 {
		t.Fatal("MarkBad not idempotent")
	}
	if _, err := a.ScheduleWrite(PPA{LUN: 1, Block: 0, Page: 0}, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("write to bad block: err = %v, want ErrBadBlock", err)
	}
	if _, err := a.ScheduleErase(b, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase of bad block: err = %v, want ErrBadBlock", err)
	}
}

func TestArrayReadTimingNoInterleave(t *testing.T) {
	a := newTestArray(Features{})
	tm := a.Timing()
	p := PPA{LUN: 0, Block: 0, Page: 0}
	wSched, err := a.ScheduleWrite(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantWrite := tm.Cmd + tm.Transfer + tm.PageWrite
	if wSched.Done.Sub(wSched.Start) != wantWrite {
		t.Errorf("write service time = %v, want %v", wSched.Done.Sub(wSched.Start), wantWrite)
	}
	rSched, err := a.ScheduleRead(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rSched.Start != wSched.Done {
		t.Errorf("read start = %v, want to queue behind write end %v", rSched.Start, wSched.Done)
	}
	wantRead := tm.Cmd + tm.PageRead + tm.Transfer
	if rSched.Done.Sub(rSched.Start) != wantRead {
		t.Errorf("read service time = %v, want %v", rSched.Done.Sub(rSched.Start), wantRead)
	}
}

func TestArrayInterleavingOverlapsSameChannel(t *testing.T) {
	// Two LUNs on one channel. Without interleaving the second op waits for
	// the whole first op; with interleaving it only waits for the bus phases.
	g := Geometry{Channels: 1, LUNsPerChannel: 2, BlocksPerLUN: 4, PagesPerBlock: 4, PageSize: 4096}

	plain := NewArray(g, TimingSLC(), Features{})
	w1, _ := plain.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0)
	w2, _ := plain.ScheduleWrite(PPA{LUN: 1, Block: 0, Page: 0}, 0)
	if w2.Start != w1.Done {
		t.Fatalf("no-interleave: second write starts %v, want %v", w2.Start, w1.Done)
	}

	il := NewArray(g, TimingSLC(), Features{Interleaving: true})
	i1, _ := il.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0)
	i2, _ := il.ScheduleWrite(PPA{LUN: 1, Block: 0, Page: 0}, 0)
	tm := il.Timing()
	busPhase := tm.Cmd + tm.Transfer
	if i2.Start != i1.Start.Add(busPhase) {
		t.Fatalf("interleave: second write starts %v, want %v (after bus phase)", i2.Start, i1.Start.Add(busPhase))
	}
	if i2.Done >= i1.Done.Add(sim.Duration(busPhase)+tm.PageWrite) {
		t.Fatal("interleaving produced no overlap")
	}
}

func TestArrayDifferentChannelsFullyParallel(t *testing.T) {
	g := Geometry{Channels: 2, LUNsPerChannel: 1, BlocksPerLUN: 4, PagesPerBlock: 4, PageSize: 4096}
	a := NewArray(g, TimingSLC(), Features{})
	w1, _ := a.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0)
	w2, _ := a.ScheduleWrite(PPA{LUN: 1, Block: 0, Page: 0}, 0)
	if w1.Start != 0 || w2.Start != 0 {
		t.Fatalf("cross-channel writes did not start together: %v %v", w1.Start, w2.Start)
	}
	if w1.Done != w2.Done {
		t.Fatalf("identical ops on free channels should finish together: %v %v", w1.Done, w2.Done)
	}
}

func TestArrayCopyback(t *testing.T) {
	a := newTestArray(Features{Copyback: true})
	src := PPA{LUN: 0, Block: 0, Page: 0}
	dst := PPA{LUN: 0, Block: 1, Page: 0}
	if _, err := a.ScheduleWrite(src, 0); err != nil {
		t.Fatal(err)
	}
	sched, err := a.ScheduleCopyback(src, dst, 0)
	if err != nil {
		t.Fatalf("copyback: %v", err)
	}
	tm := a.Timing()
	want := tm.Cmd + tm.PageRead + tm.PageWrite
	if sched.Done.Sub(sched.Start) != want {
		t.Errorf("copyback service time = %v, want %v (no data transfer)", sched.Done.Sub(sched.Start), want)
	}
	if a.PageState(dst) != PageValid {
		t.Error("copyback destination not valid")
	}
	if a.PageState(src) != PageValid {
		t.Error("copyback source should stay valid until caller invalidates")
	}
	if a.Counters().Copybacks != 1 {
		t.Errorf("copyback counter = %d", a.Counters().Copybacks)
	}
}

func TestArrayCopybackConstraints(t *testing.T) {
	a := newTestArray(Features{}) // no copyback support
	src := PPA{LUN: 0, Block: 0, Page: 0}
	if _, err := a.ScheduleWrite(src, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ScheduleCopyback(src, PPA{LUN: 0, Block: 1, Page: 0}, 0); !errors.Is(err, ErrCopybackOff) {
		t.Fatalf("copyback without feature: err = %v, want ErrCopybackOff", err)
	}

	b := newTestArray(Features{Copyback: true})
	if _, err := b.ScheduleWrite(src, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ScheduleCopyback(src, PPA{LUN: 1, Block: 0, Page: 0}, 0); !errors.Is(err, ErrCrossLUN) {
		t.Fatalf("cross-LUN copyback: err = %v, want ErrCrossLUN", err)
	}
	if _, err := b.ScheduleCopyback(src, PPA{LUN: 0, Block: 1, Page: 1}, 0); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("out-of-order copyback dst: err = %v, want ErrProgramOrder", err)
	}
}

func TestArrayBoundsChecks(t *testing.T) {
	a := newTestArray(Features{})
	if _, err := a.ScheduleRead(PPA{LUN: 99, Block: 0, Page: 0}, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("read OOB: %v", err)
	}
	if _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 99, Page: 0}, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("write OOB: %v", err)
	}
	if _, err := a.ScheduleErase(BlockID{LUN: 0, Block: 99}, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("erase OOB: %v", err)
	}
	if err := a.Invalidate(PPA{LUN: -1}); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("invalidate OOB: %v", err)
	}
}

func TestArrayCounters(t *testing.T) {
	a := newTestArray(Features{})
	p := PPA{LUN: 0, Block: 0, Page: 0}
	a.ScheduleWrite(p, 0)
	a.ScheduleRead(p, 0)
	a.ScheduleRead(p, 0)
	a.Invalidate(p)
	a.ScheduleErase(BlockID{LUN: 0, Block: 0}, 0)
	c := a.Counters()
	if c.Writes != 1 || c.Reads != 2 || c.Erases != 1 || c.Copybacks != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestArrayPruneKeepsSemantics(t *testing.T) {
	a := newTestArray(Features{Interleaving: true})
	var last sim.Time
	for pg := 0; pg < 4; pg++ {
		s, err := a.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: pg}, last)
		if err != nil {
			t.Fatal(err)
		}
		last = s.Done
	}
	a.Prune(last)
	if a.LUNFreeAt(0) != 0 {
		t.Fatalf("after full prune LUNFreeAt = %v, want 0 (empty)", a.LUNFreeAt(0))
	}
	// Scheduling after prune still works and starts no earlier than asked.
	s, err := a.ScheduleWrite(PPA{LUN: 0, Block: 1, Page: 0}, last)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start < last {
		t.Fatalf("post-prune op started at %v before request %v", s.Start, last)
	}
}
