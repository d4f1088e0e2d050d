package gc

import (
	"testing"

	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/sim"
)

func gcGeo() flash.Geometry {
	return flash.Geometry{Channels: 1, LUNsPerChannel: 1, BlocksPerLUN: 8, PagesPerBlock: 4, PageSize: 4096}
}

// fillBlocks writes whole blocks through the manager and invalidates
// `stale[i]` pages of the i-th filled block, returning the block IDs.
func fillBlocks(t *testing.T, a *flash.Array, bm *ftl.BlockManager, stale []int) []flash.BlockID {
	t.Helper()
	g := a.Geometry()
	var blocks []flash.BlockID
	for _, nStale := range stale {
		var ppas []flash.PPA
		for p := 0; p < g.PagesPerBlock; p++ {
			ppa, err := bm.Alloc(0, ftl.StreamGC) // internal stream: ignores reserve
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.ScheduleWrite(ppa, 0); err != nil {
				t.Fatal(err)
			}
			ppas = append(ppas, ppa)
		}
		for i := 0; i < nStale; i++ {
			if err := a.Invalidate(ppas[i]); err != nil {
				t.Fatal(err)
			}
		}
		blocks = append(blocks, ppas[0].BlockOf())
	}
	return blocks
}

func TestGreedyPicksFewestLive(t *testing.T) {
	a := flash.NewArray(gcGeo(), flash.TimingSLC(), flash.Features{})
	bm := ftl.NewBlockManager(a, 0, 1, false)
	blocks := fillBlocks(t, a, bm, []int{1, 3, 2}) // live pages: 3, 1, 2
	c := NewCollector(bm, Greedy{}, 2)
	victim, ok := c.SelectVictim(0, 0)
	if !ok {
		t.Fatal("no victim selected")
	}
	if victim != blocks[1] {
		t.Fatalf("victim = %v, want %v (fewest live pages)", victim, blocks[1])
	}
	if c.Triggered(0) != 1 {
		t.Fatalf("Triggered = %d", c.Triggered(0))
	}
}

func TestGreedyRefusesFullyLiveVictims(t *testing.T) {
	a := flash.NewArray(gcGeo(), flash.TimingSLC(), flash.Features{})
	bm := ftl.NewBlockManager(a, 0, 1, false)
	fillBlocks(t, a, bm, []int{0, 0}) // all pages live
	c := NewCollector(bm, Greedy{}, 2)
	if _, ok := c.SelectVictim(0, 0); ok {
		t.Fatal("selected a victim with zero reclaimable pages")
	}
}

func TestShouldCollectFollowsGreediness(t *testing.T) {
	g := gcGeo()
	a := flash.NewArray(g, flash.TimingSLC(), flash.Features{})
	bm := ftl.NewBlockManager(a, 0, 1, false)
	c := NewCollector(bm, Greedy{}, 3)
	if c.ShouldCollect(0) {
		t.Fatal("fresh LUN flagged for collection")
	}
	// Consume blocks until fewer than 3 free.
	fillBlocks(t, a, bm, []int{0, 0, 0, 0, 0, 0}) // 6 of 8 blocks
	if !c.ShouldCollect(0) {
		t.Fatalf("2 free blocks with greediness 3 not flagged (free=%d)", bm.FreeCount(0))
	}
	if c.Greediness() != 3 {
		t.Fatalf("Greediness = %d", c.Greediness())
	}
}

func TestCostBenefitPrefersOldStale(t *testing.T) {
	g := gcGeo()
	a := flash.NewArray(g, flash.TimingSLC(), flash.Features{})
	bm := ftl.NewBlockManager(a, 0, 1, false)
	blocks := fillBlocks(t, a, bm, []int{2, 2})
	// Erase-cycle block 0 so its LastErase is recent; block 1 keeps
	// LastErase 0 (older age -> higher cost-benefit score).
	// Equal utilization, so age decides.
	now := sim.Time(1_000_000)
	cands := []Candidate{
		{Block: blocks[0], ValidPages: 2, LastErase: 900_000},
		{Block: blocks[1], ValidPages: 2, LastErase: 0},
	}
	idx, ok := CostBenefit{}.Pick(cands, now, g.PagesPerBlock)
	if !ok || idx != 1 {
		t.Fatalf("cost-benefit picked %d (ok=%v), want 1 (older block)", idx, ok)
	}
}

func TestCostBenefitPrefersEmptyOverPartial(t *testing.T) {
	g := gcGeo()
	cands := []Candidate{
		{ValidPages: 1, LastErase: 0},
		{ValidPages: 0, LastErase: 0},
	}
	idx, ok := CostBenefit{}.Pick(cands, 1000, g.PagesPerBlock)
	if !ok || idx != 1 {
		t.Fatalf("picked %d, want 1 (zero live pages)", idx)
	}
}

func TestCostBenefitRefusesAllLive(t *testing.T) {
	g := gcGeo()
	cands := []Candidate{
		{ValidPages: 4},
	}
	if _, ok := (CostBenefit{}).Pick(cands, 1000, g.PagesPerBlock); ok {
		t.Fatal("cost-benefit collected a fully live block")
	}
}

func TestRandomPolicyOnlyPicksEligible(t *testing.T) {
	g := gcGeo()
	r := Random{RNG: sim.NewRNG(1)}
	cands := []Candidate{
		{ValidPages: 4}, // full live
		{ValidPages: 1},
		{ValidPages: 4}, // full live
	}
	for i := 0; i < 50; i++ {
		idx, ok := r.Pick(cands, 0, g.PagesPerBlock)
		if !ok {
			t.Fatal("no victim")
		}
		if idx != 1 {
			t.Fatalf("random policy picked fully live candidate %d", idx)
		}
	}
	if _, ok := r.Pick(cands[:1], 0, g.PagesPerBlock); ok {
		t.Fatal("random policy picked among all-live candidates")
	}
}

func TestPolicyNames(t *testing.T) {
	if (Greedy{}).Name() != "greedy" || (CostBenefit{}).Name() != "costbenefit" || (&Random{}).Name() != "random" {
		t.Error("policy names wrong")
	}
}

func TestNewCollectorPanicsOnBadGreediness(t *testing.T) {
	a := flash.NewArray(gcGeo(), flash.TimingSLC(), flash.Features{})
	bm := ftl.NewBlockManager(a, 0, 1, false)
	defer func() {
		if recover() == nil {
			t.Error("greediness 0 accepted")
		}
	}()
	NewCollector(bm, Greedy{}, 0)
}
