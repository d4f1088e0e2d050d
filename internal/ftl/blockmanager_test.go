package ftl

import (
	"errors"
	"testing"

	"eagletree/internal/flash"
)

func newBM(t *testing.T, reserved, gcReserve int, ageAware bool) (*BlockManager, *flash.Array) {
	t.Helper()
	a := flash.NewArray(ftlGeo(), flash.TimingSLC(), flash.Features{})
	return NewBlockManager(a, reserved, gcReserve, ageAware), a
}

func TestBlockManagerAllocFillsBlockSequentially(t *testing.T) {
	bm, _ := newBM(t, 0, 1, false)
	g := ftlGeo()
	var prev flash.PPA
	for i := 0; i < g.PagesPerBlock; i++ {
		ppa, err := bm.Alloc(0, StreamDefault)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if ppa.Block != prev.Block || ppa.Page != prev.Page+1 {
				t.Fatalf("non-sequential alloc: %v after %v", ppa, prev)
			}
		}
		prev = ppa
	}
	// Next alloc opens a new block.
	ppa, err := bm.Alloc(0, StreamDefault)
	if err != nil {
		t.Fatal(err)
	}
	if ppa.Block == prev.Block {
		t.Fatal("full block was not retired")
	}
	if ppa.Page != 0 {
		t.Fatalf("new block did not start at page 0: %v", ppa)
	}
}

func TestBlockManagerStreamsGetSeparateBlocks(t *testing.T) {
	bm, _ := newBM(t, 0, 1, false)
	a, err := bm.Alloc(0, StreamDefault)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bm.Alloc(0, StreamHot)
	if err != nil {
		t.Fatal(err)
	}
	if a.Block == b.Block {
		t.Fatal("two streams share one open block")
	}
	if bm.OpenStreams(0) != 2 {
		t.Fatalf("OpenStreams = %d", bm.OpenStreams(0))
	}
}

func TestBlockManagerGCReserve(t *testing.T) {
	g := ftlGeo()
	bm, _ := newBM(t, 0, 2, false)
	// Drain the LUN with app writes until the reserve stops us.
	allocated := 0
	for {
		_, err := bm.Alloc(0, StreamDefault)
		if errors.Is(err, ErrOutOfSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if allocated++; allocated > g.PagesPerLUN() {
			t.Fatal("reserve never engaged")
		}
	}
	if bm.FreeCount(0) != 2 {
		t.Fatalf("reserve left %d free blocks, want 2", bm.FreeCount(0))
	}
	if bm.CanAlloc(0, StreamDefault) {
		t.Fatal("CanAlloc(app) true at reserve floor")
	}
	// Internal streams may still allocate.
	if !bm.CanAlloc(0, StreamGC) {
		t.Fatal("CanAlloc(gc) false with reserve blocks free")
	}
	if _, err := bm.Alloc(0, StreamGC); err != nil {
		t.Fatalf("GC alloc inside reserve: %v", err)
	}
}

func TestBlockManagerExhaustion(t *testing.T) {
	g := ftlGeo()
	bm, _ := newBM(t, 0, 1, false)
	for i := 0; i < g.PagesPerLUN(); i++ {
		if _, err := bm.Alloc(0, StreamGC); err != nil {
			if !errors.Is(err, ErrNoFreeBlock) {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
	}
	if _, err := bm.Alloc(0, StreamGC); !errors.Is(err, ErrNoFreeBlock) {
		t.Fatalf("exhausted LUN returned %v, want ErrNoFreeBlock", err)
	}
}

func TestBlockManagerReleaseRecycles(t *testing.T) {
	bm, a := newBM(t, 0, 1, false)
	g := ftlGeo()
	// Fill one block through the array so erase is legal, then release it.
	var ppas []flash.PPA
	for i := 0; i < g.PagesPerBlock; i++ {
		ppa, err := bm.Alloc(0, StreamDefault)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ScheduleWrite(ppa, 0); err != nil {
			t.Fatal(err)
		}
		ppas = append(ppas, ppa)
	}
	before := bm.FreeCount(0)
	for _, p := range ppas {
		if err := a.Invalidate(p); err != nil {
			t.Fatal(err)
		}
	}
	blk := ppas[0].BlockOf()
	if _, err := a.ScheduleErase(blk, 0); err != nil {
		t.Fatal(err)
	}
	bm.Release(blk)
	if bm.FreeCount(0) != before+1 {
		t.Fatalf("FreeCount after release = %d, want %d", bm.FreeCount(0), before+1)
	}
}

func TestBlockManagerTranslationRegionExcluded(t *testing.T) {
	bm, _ := newBM(t, 2, 1, false)
	g := ftlGeo()
	if bm.DataBlocksPerLUN() != g.BlocksPerLUN-2 {
		t.Fatalf("DataBlocksPerLUN = %d", bm.DataBlocksPerLUN())
	}
	if bm.DataPages() != (g.BlocksPerLUN-2)*g.PagesPerBlock*g.LUNs() {
		t.Fatalf("DataPages = %d", bm.DataPages())
	}
	seen := map[int]bool{}
	for {
		ppa, err := bm.Alloc(0, StreamGC)
		if err != nil {
			break
		}
		seen[ppa.Block] = true
	}
	for blk := range seen {
		if blk < 2 {
			t.Fatalf("allocated from reserved translation block %d", blk)
		}
	}
}

func TestBlockManagerAgeAwareAllocation(t *testing.T) {
	bm, a := newBM(t, 0, 1, true)
	g := ftlGeo()
	// Age block 5 of LUN 0 by erasing it three times.
	for i := 0; i < 3; i++ {
		if _, err := a.ScheduleErase(flash.BlockID{LUN: 0, Block: 5}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Rebuild the manager so its free list reflects erase counts.
	bm = NewBlockManager(a, 0, 1, true)
	// Sorted-insertion path: release order must not matter, so force a
	// release round-trip for the aged block.
	cold, err := bm.Alloc(0, StreamCold)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Block != 5 {
		t.Fatalf("cold stream got block %d, want the oldest (5)", cold.Block)
	}
	hot, err := bm.Alloc(0, StreamHot)
	if err != nil {
		t.Fatal(err)
	}
	if a.Columns().EraseCount[g.BlockIndex(hot.BlockOf())] != 0 {
		t.Fatalf("hot stream got an aged block %d", hot.Block)
	}
}

func TestBlockManagerVictimCandidates(t *testing.T) {
	bm, a := newBM(t, 1, 1, false)
	g := ftlGeo()
	// Fill two blocks completely and leave one open.
	var full []flash.BlockID
	for i := 0; i < 2*g.PagesPerBlock; i++ {
		ppa, err := bm.Alloc(1, StreamDefault)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ScheduleWrite(ppa, 0); err != nil {
			t.Fatal(err)
		}
		if ppa.Page == g.PagesPerBlock-1 {
			full = append(full, ppa.BlockOf())
		}
	}
	open, err := bm.Alloc(1, StreamDefault) // opens a third block
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ScheduleWrite(open, 0); err != nil {
		t.Fatal(err)
	}
	var got []flash.BlockID
	bm.VictimCandidates(1, func(b flash.BlockID, i int) {
		if i != g.BlockIndex(b) {
			t.Errorf("candidate %v has column index %d, want %d", b, i, g.BlockIndex(b))
		}
		got = append(got, b)
	})
	if len(got) != len(full) {
		t.Fatalf("candidates = %v, want %v (open/free/translation excluded)", got, full)
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("candidates = %v, want %v", got, full)
		}
	}
}

func TestStreamHelpers(t *testing.T) {
	if !StreamGC.internal() || !StreamWL.internal() || StreamDefault.internal() {
		t.Error("internal() wrong")
	}
	if !StreamCold.cold() || !StreamWL.cold() || StreamHot.cold() {
		t.Error("cold() wrong")
	}
	if LocalityStream(0) == LocalityStream(1) {
		t.Error("adjacent locality groups collide")
	}
	if LocalityStream(3) != LocalityStream(3+MaxLocalityStreams) {
		t.Error("locality stream hashing not modular")
	}
	if LocalityStream(-2) < numBaseStreams {
		t.Error("negative group mapped onto a base stream")
	}
	if StreamGC.String() != "gc" || LocalityStream(1).String() == "" {
		t.Error("stream String() wrong")
	}
}
