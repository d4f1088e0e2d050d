// Package wl implements wear leveling policy: distributing erase cycles
// evenly across blocks so no block wears out prematurely.
//
// The default module mirrors the paper: it tracks (1) the ages of all blocks
// (erase counts), (2) a timestamp per block of its last erase, (3) the
// average time between erases, and (4) the current time. From these it
// identifies particularly young blocks that have not been erased for a very
// long time — they hold cold data squatting on low-wear cells — and targets
// them for static wear leveling: migrate their live pages away (the data is
// presumed cold) and release the young block for hot data.
//
// Dynamic wear leveling — steering hot data to young free blocks and cold
// data to old ones at allocation time — lives in the block manager's
// age-aware allocation; this package only carries its configuration flag.
//
//eagletree:typederrors
package wl

import (
	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/sim"
)

// Config tunes the wear-leveling module.
type Config struct {
	// Static enables periodic static wear leveling.
	Static bool
	// Dynamic enables age-aware allocation in the block manager (recorded
	// here for reports; the block manager enforces it).
	Dynamic bool
	// CheckInterval is how often the static scan runs in virtual time.
	CheckInterval sim.Duration
	// AgeSlack is how many erase cycles below the average a block must be
	// to count as "particularly young".
	AgeSlack int
	// IdleFactor is how many average erase intervals a block must have gone
	// without an erase to count as "not erased for a very long time".
	IdleFactor float64
	// MaxMigrationsPerScan bounds how many victim blocks one scan may queue,
	// keeping WL interference with application IOs bounded.
	MaxMigrationsPerScan int
}

// DefaultConfig returns the module defaults: static scan every 50ms of
// virtual time, blocks 2+ erases younger than average and idle for 4+
// average erase intervals get migrated, at most 1 migration per scan.
func DefaultConfig() Config {
	return Config{
		Static:               true,
		Dynamic:              true,
		CheckInterval:        50 * sim.Millisecond,
		AgeSlack:             2,
		IdleFactor:           4,
		MaxMigrationsPerScan: 1,
	}
}

// Leveler implements static wear-leveling victim identification.
type Leveler struct {
	cfg  Config
	bm   *ftl.BlockManager
	nLUN int

	scans     uint64
	migrated  uint64
	totalEr   uint64 // running erase count the leveler has observed
	observedA float64

	picks []scored        // victimsForLUN's candidate scratch, reset per LUN
	out   []flash.BlockID // Victims' result, reused by the next scan
}

// scored is one static-WL candidate with its erase count.
type scored struct {
	b  flash.BlockID
	ec int
}

// NewLeveler builds a leveler over the block manager's data region.
func NewLeveler(bm *ftl.BlockManager, cfg Config) *Leveler {
	return &Leveler{cfg: cfg, bm: bm, nLUN: bm.LUNs()}
}

// Config returns the active configuration.
func (l *Leveler) Config() Config { return l.cfg }

// Scans returns how many static scans have run.
func (l *Leveler) Scans() uint64 { return l.scans }

// Migrated returns how many blocks static WL has queued for migration.
func (l *Leveler) Migrated() uint64 { return l.migrated }

// LevelerState is the leveler's serializable state for device snapshots.
type LevelerState struct {
	Scans       uint64
	Migrated    uint64
	TotalErases uint64
	ObservedAvg float64
}

// State copies the leveler's counters for a snapshot.
func (l *Leveler) State() LevelerState {
	return LevelerState{Scans: l.scans, Migrated: l.migrated, TotalErases: l.totalEr, ObservedAvg: l.observedA}
}

// RestoreState overwrites the leveler's counters with a snapshot.
func (l *Leveler) RestoreState(st LevelerState) {
	l.scans = st.Scans
	l.migrated = st.Migrated
	l.totalEr = st.TotalErases
	l.observedA = st.ObservedAvg
}

// Victims scans every LUN and returns the blocks static wear leveling should
// migrate now: blocks at least AgeSlack erases younger than the mean whose
// last erase is more than IdleFactor mean-erase-intervals ago. At most
// MaxMigrationsPerScan blocks are returned per LUN, fewest-erase first. The
// slice is valid until the next call.
func (l *Leveler) Victims(now sim.Time) []flash.BlockID {
	if !l.cfg.Static {
		return nil
	}
	l.scans++
	out := l.out[:0]
	for lun := 0; lun < l.nLUN; lun++ {
		out = l.victimsForLUN(lun, now, out)
	}
	l.out = out
	return out
}

func (l *Leveler) victimsForLUN(lun int, now sim.Time, out []flash.BlockID) []flash.BlockID {
	// First pass: erase-count statistics over every block in the LUN's data
	// region — a single walk of the erase-count column. Free blocks carry
	// wear too; counting only occupied blocks would bias the mean toward
	// whatever happens to hold data right now.
	n, sumErase := l.bm.WearStats(lun)
	if n == 0 {
		return out
	}
	meanErase := float64(sumErase) / float64(n)
	if meanErase < float64(l.cfg.AgeSlack) {
		// Too early in device life for any block to be AgeSlack below mean.
		return out
	}
	// Average erase interval: device lifetime divided by mean erases.
	avgInterval := float64(now) / (meanErase + 1)
	idleCutoff := sim.Duration(l.cfg.IdleFactor * avgInterval)

	picks, cols := l.picks[:0], l.bm.Columns()
	l.bm.VictimCandidates(lun, func(b flash.BlockID, i int) {
		ec := int(cols.EraseCount[i])
		young := float64(ec) <= meanErase-float64(l.cfg.AgeSlack)
		idle := now.Sub(cols.LastErase[i]) > idleCutoff
		if young && idle && cols.ValidPages[i] > 0 {
			picks = append(picks, scored{b, ec})
		}
	})
	l.picks = picks
	// Fewest erases first; stable order by block index from VictimCandidates.
	for i := 1; i < len(picks); i++ {
		for j := i; j > 0 && picks[j].ec < picks[j-1].ec; j-- {
			picks[j], picks[j-1] = picks[j-1], picks[j]
		}
	}
	max := l.cfg.MaxMigrationsPerScan
	if max <= 0 {
		max = 1
	}
	for i := 0; i < len(picks) && i < max; i++ {
		out = append(out, picks[i].b)
		l.migrated++
	}
	return out
}
