package flash

import (
	"math/bits"

	"eagletree/internal/sim"
)

// BlockColumns is the per-block metadata as struct-of-arrays columns,
// indexed by Geometry.BlockIndex (a LUN's blocks are contiguous:
// [lun*BlocksPerLUN, (lun+1)*BlocksPerLUN)). It is the only form block
// metadata takes. Scan layers — GC victim selection, wear leveling,
// allocator bookkeeping — iterate one column end to end. The view Columns
// returns aliases live array state and must not be written or retained
// across events; ArrayState.Blocks is an owned copy a snapshot holds.
type BlockColumns struct {
	EraseCount []int32
	LastErase  []sim.Time
	ValidPages []int32
	WritePtr   []int32
	Bad        []bool
}

// Columns returns the struct-of-arrays view of the block metadata.
func (a *Array) Columns() BlockColumns {
	return BlockColumns{
		EraseCount: a.eraseCount,
		LastErase:  a.lastErase,
		ValidPages: a.validPages,
		WritePtr:   a.writePtr,
		Bad:        a.bad,
	}
}

// BucketWords returns the number of uint64 words in one per-LUN block
// bitset — the length callers of MinValidBlock size their eligibility
// masks to.
func (a *Array) BucketWords() int { return a.bWords }

// MinValidBlock returns the eligible block of the LUN with the fewest valid
// pages, considering only valid counts strictly below maxValid. eligible is
// a BucketWords()-long bitset of LUN-local block indexes (bit b of word b/64
// set ⇔ block b may be picked). Ties break toward the lowest block index —
// the same order a linear scan that keeps the first strictly-smaller
// candidate produces. The bool result is false when no eligible block has a
// valid count below maxValid.
//
// Cost is O(maxValid · BucketWords()) words touched, independent of how many
// blocks the LUN holds — this is the bucketed min-tracker that replaces the
// full-device Greedy victim scan.
//
//eagletree:hotpath
func (a *Array) MinValidBlock(lun int, eligible []uint64, maxValid int) (blk, valid int, ok bool) {
	base := a.bucketRow(lun, 0)
	for v := 0; v < maxValid; v++ {
		row := base + v*a.bWords
		for w := 0; w < a.bWords; w++ {
			if m := a.buckets[row+w] & eligible[w]; m != 0 {
				return w*64 + bits.TrailingZeros64(m), v, true
			}
		}
	}
	return 0, 0, false
}

// fillBuckets computes the (still empty) (LUN, valid-count) bucket bitsets
// from restored block columns. Membership invariant: a block is bucketed
// iff it is programmed (WritePtr > 0) and not retired.
func (a *Array) fillBuckets() {
	for lun := 0; lun < a.geo.LUNs(); lun++ {
		base := lun * a.geo.BlocksPerLUN
		for b := 0; b < a.geo.BlocksPerLUN; b++ {
			if a.writePtr[base+b] > 0 && !a.bad[base+b] {
				a.bucketAdd(lun, b, int(a.validPages[base+b]))
			}
		}
	}
}
