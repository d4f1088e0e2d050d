// Package gc implements garbage collection policy for page-mapped FTLs:
// when to trigger collection and which victim block to reclaim.
//
// Following the paper's default module, collection is governed by a
// *greediness* parameter: the controller strives to keep a given number of
// blocks free on every LUN. Waiting as long as possible maximizes the number
// of invalid pages across the SSD (victims carry fewer live pages), but
// waiting too long starves incoming writes; keeping free space on every LUN
// preserves scheduling flexibility for writes. The greediness knob trades
// these off, and experiment E3 sweeps it.
//
// The package decides; the controller executes. Migration and erase IOs are
// issued by the controller through the same scheduler queue as application
// IOs, which is how GC interference becomes visible in latency traces.
//
//eagletree:typederrors
package gc

import (
	"errors"
	"fmt"

	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/sim"
)

// ErrStateMismatch wraps every shape mismatch between a snapshot and the
// collector it is restored into.
var ErrStateMismatch = errors.New("gc: snapshot does not match collector shape")

// Candidate is a victim-eligible block with the metadata policies rank by.
type Candidate struct {
	Block      flash.BlockID
	ValidPages int
	LastErase  sim.Time
}

// VictimPolicy ranks victim candidates. Pick returns the index of the chosen
// candidate, or false if none is worth collecting. The cands slice is a
// scratch buffer owned by the caller, valid only for the duration of the
// call: implementations must not retain it.
type VictimPolicy interface {
	Name() string
	Pick(cands []Candidate, now sim.Time, pagesPerBlock int) (int, bool)
}

// Greedy picks the block with the fewest live pages: minimum migration cost
// per reclaimed block. This is the classic default.
type Greedy struct{}

// Name implements VictimPolicy.
func (Greedy) Name() string { return "greedy" }

// Pick implements VictimPolicy.
func (Greedy) Pick(cands []Candidate, _ sim.Time, pagesPerBlock int) (int, bool) {
	best, bestValid := -1, pagesPerBlock+1
	for i, c := range cands {
		if c.ValidPages < bestValid {
			best, bestValid = i, c.ValidPages
		}
	}
	if best < 0 || bestValid >= pagesPerBlock {
		// Every candidate is fully live: collecting would migrate a whole
		// block to reclaim nothing.
		return 0, false
	}
	return best, true
}

// CostBenefit implements the classic cost-benefit score
// (1-u)/(2u) * age: prefer blocks that are both mostly stale and have been
// stable for a while, sparing recently written blocks whose remaining live
// pages are likely to die soon anyway.
type CostBenefit struct{}

// Name implements VictimPolicy.
func (CostBenefit) Name() string { return "costbenefit" }

// Pick implements VictimPolicy.
func (CostBenefit) Pick(cands []Candidate, now sim.Time, pagesPerBlock int) (int, bool) {
	best, bestScore := -1, -1.0
	for i, c := range cands {
		u := float64(c.ValidPages) / float64(pagesPerBlock)
		if u >= 1 {
			continue
		}
		age := float64(now.Sub(c.LastErase)) + 1
		var score float64
		if u == 0 {
			score = age * 1e12 // free win: nothing to migrate
		} else {
			score = (1 - u) / (2 * u) * age
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Random picks a uniformly random victim with at least one stale page. It is
// the paper-style baseline that shows what victim selection buys.
type Random struct {
	// RNG is the victim-choice randomness source; nil means a fixed-seed
	// default, keeping simulations deterministic by construction.
	RNG *sim.RNG
}

// Name implements VictimPolicy.
func (*Random) Name() string { return "random" }

// Pick implements VictimPolicy.
func (r *Random) Pick(cands []Candidate, _ sim.Time, pagesPerBlock int) (int, bool) {
	if r.RNG == nil {
		r.RNG = sim.NewRNG(0xEA61E)
	}
	eligible := make([]int, 0, len(cands))
	for i, c := range cands {
		if c.ValidPages < pagesPerBlock {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return 0, false
	}
	return eligible[r.RNG.Intn(len(eligible))], true
}

// isGreedy reports whether the policy is the default Greedy ranker (the
// spec layer constructs it by value, tests sometimes by pointer).
func isGreedy(p VictimPolicy) bool {
	switch p.(type) {
	case Greedy, *Greedy:
		return true
	}
	return false
}

// Collector decides when a LUN needs garbage collection and which block to
// reclaim, using the block manager's view of free space and victim
// candidates.
type Collector struct {
	bm         *ftl.BlockManager
	policy     VictimPolicy
	greediness int

	// Triggered counts collections started, per LUN, for reports.
	triggered []uint64

	scratch []Candidate // reused candidate buffer; SelectVictim runs per write completion at the free-space floor
}

// NewCollector builds a collector keeping `greediness` blocks free per LUN.
func NewCollector(bm *ftl.BlockManager, policy VictimPolicy, greediness int) *Collector {
	if greediness < 1 {
		panic(fmt.Sprintf("gc: greediness %d, must be >= 1", greediness))
	}
	return &Collector{
		bm:         bm,
		policy:     policy,
		greediness: greediness,
		triggered:  make([]uint64, bm.LUNs()),
	}
}

// Greediness returns the free-blocks-per-LUN target.
func (c *Collector) Greediness() int { return c.greediness }

// Policy returns the victim selection policy.
func (c *Collector) Policy() VictimPolicy { return c.policy }

// Triggered returns how many collections have started on a LUN.
func (c *Collector) Triggered(lun int) uint64 { return c.triggered[lun] }

// ShouldCollect reports whether the LUN has fallen to or below the
// free-block target. The threshold is inclusive: application writes stall
// once only the GC reserve (= greediness) blocks remain, so collection must
// fire exactly at the floor or the device would deadlock at greediness 1.
func (c *Collector) ShouldCollect(lun int) bool {
	return c.bm.FreeCount(lun) <= c.greediness
}

// CollectorState is the collector's serializable state for device snapshots:
// per-LUN trigger counts. Policy and greediness are configuration, rebuilt at
// restore time from the owning Config.
type CollectorState struct {
	Triggered []uint64
}

// State copies the collector's counters for a snapshot.
func (c *Collector) State() CollectorState {
	return CollectorState{Triggered: append([]uint64(nil), c.triggered...)}
}

// RestoreState overwrites the collector's counters with a snapshot.
func (c *Collector) RestoreState(st CollectorState) error {
	if len(st.Triggered) != len(c.triggered) {
		return fmt.Errorf("%w: snapshot has %d LUN trigger counts, collector has %d", ErrStateMismatch, len(st.Triggered), len(c.triggered))
	}
	copy(c.triggered, st.Triggered)
	return nil
}

// SelectVictim picks the block to reclaim on a LUN, or false if no candidate
// is worth collecting. A successful selection is counted as a triggered
// collection.
//
// Greedy's pick — minimum valid pages, ties toward the lowest block index,
// refuse fully-live blocks — is exactly what the block manager's bucketed
// min-tracker answers, so the default policy skips materializing the
// candidate list entirely; ranking policies that need age or randomness
// still receive the full scan.
func (c *Collector) SelectVictim(lun int, now sim.Time) (flash.BlockID, bool) {
	if isGreedy(c.policy) {
		b, _, ok := c.bm.MinValidVictim(lun)
		if !ok {
			return flash.BlockID{}, false
		}
		c.triggered[lun]++
		return b, true
	}
	cands, cols := c.scratch[:0], c.bm.Columns()
	c.bm.VictimCandidates(lun, func(b flash.BlockID, i int) {
		cands = append(cands, Candidate{Block: b, ValidPages: int(cols.ValidPages[i]), LastErase: cols.LastErase[i]})
	})
	c.scratch = cands[:0]
	if len(cands) == 0 {
		return flash.BlockID{}, false
	}
	idx, ok := c.policy.Pick(cands, now, c.bm.PagesPerBlock())
	if !ok {
		return flash.BlockID{}, false
	}
	c.triggered[lun]++
	return cands[idx].Block, true
}
