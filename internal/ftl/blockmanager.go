package ftl

import (
	"fmt"
	"sort"

	"eagletree/internal/flash"
)

// Stream identifies a write frontier. Each (LUN, stream) pair fills its own
// open block, so pages written through one stream land together — the
// mechanism behind hot/cold separation, GC isolation and update-locality
// grouping.
type Stream uint8

// Base streams. Locality groups map to dedicated streams above these.
const (
	StreamDefault Stream = iota // untagged application writes
	StreamGC                    // garbage-collection migrations, temperature unknown
	StreamWL                    // wear-leveling migrations (cold by definition)
	StreamHot                   // data known or detected hot
	StreamCold                  // data known or detected cold
	StreamGCHot                 // GC migrations of known-hot pages
	StreamGCCold                // GC migrations of known-cold pages
	numBaseStreams
)

// MaxLocalityStreams bounds how many concurrent update-locality groups get
// their own write frontier; groups hash onto these.
const MaxLocalityStreams = 8

// NumStreams is the total number of distinct stream values (base streams
// plus locality streams) — the size of dense per-stream arrays.
const NumStreams = int(numBaseStreams) + MaxLocalityStreams

// LocalityStream returns the stream for an update-locality group.
func LocalityStream(group int) Stream {
	if group < 0 {
		group = -group
	}
	return numBaseStreams + Stream(group%MaxLocalityStreams)
}

func (s Stream) String() string {
	switch s {
	case StreamDefault:
		return "default"
	case StreamGC:
		return "gc"
	case StreamWL:
		return "wl"
	case StreamHot:
		return "hot"
	case StreamCold:
		return "cold"
	case StreamGCHot:
		return "gc-hot"
	case StreamGCCold:
		return "gc-cold"
	default:
		return fmt.Sprintf("loc%d", int(s-numBaseStreams))
	}
}

// internal reports whether the stream belongs to the controller itself.
// Internal streams may dig into the GC reserve; application streams may not,
// otherwise GC could find no free block to migrate into and deadlock.
func (s Stream) internal() bool {
	return s == StreamGC || s == StreamWL || s == StreamGCHot || s == StreamGCCold
}

// cold reports whether the stream should prefer old (high-erase-count)
// blocks under dynamic wear leveling.
func (s Stream) cold() bool { return s == StreamCold || s == StreamWL || s == StreamGCCold }

type openBlock struct {
	block  int // block index within the LUN
	next   int // next page to program
	active bool
}

// ecBucket holds the free blocks of one erase-count class in FIFO order:
// live entries are blocks[head:], Release appends at the back, the young
// end pops the front and the old end pops the back. Together with the
// ascending-ec bucket list this reproduces exactly the order of a single
// flat pool kept sorted young → old with equal-count ties broken by
// insertion order — but Release is O(1) amortized instead of an O(pool)
// sorted insert.
type ecBucket struct {
	ec     int32
	head   int
	blocks []int
}

func (b *ecBucket) empty() bool { return b.head >= len(b.blocks) }

type lunState struct {
	// Free pool. Exactly one representation is live: a FIFO ring (freeq
	// with freeHead as the pop index) when allocation is age-blind, or the
	// erase-count buckets when ageAware. freeN counts live entries in
	// either.
	freeq    []int
	freeHead int
	buckets  []ecBucket
	spare    [][]int // emptied buckets' block slices, reused by bucketAppend
	freeN    int

	// open is indexed by Stream: a dense value array instead of a map,
	// because CanAlloc probes it on every write-readiness check in the
	// dispatch hot path.
	open      [NumStreams]openBlock
	openCount int

	// openMask mirrors open as a bitset of LUN-local block indexes, so
	// victim scans test frontier membership in O(1) instead of probing all
	// NumStreams entries. An open block belongs to exactly one stream, so
	// closing a frontier clears its bit unconditionally.
	openMask []uint64
}

// BlockManager owns physical space allocation for the data region: per-LUN
// free block pools and one open block per active write stream. The first
// ReservedTrans blocks of every LUN are carved out for the mapping scheme's
// translation log and never appear in the data pools.
type BlockManager struct {
	array         *flash.Array
	geo           flash.Geometry
	reservedTrans int
	gcReserve     int
	ageAware      bool
	luns          []lunState

	// bWords is the per-LUN bitset width in uint64 words; dataMask has the
	// data-region block bits set (shared by every LUN); scratch is the
	// reusable eligibility mask for bucketed victim queries.
	bWords   int
	dataMask []uint64
	scratch  []uint64
}

// NewBlockManager carves the array into translation and data regions and
// fills the free pools. gcReserve free blocks per LUN are kept back from
// application streams so internal migrations always find space; ageAware
// enables dynamic wear leveling (young blocks to hot streams, old to cold).
func NewBlockManager(array *flash.Array, reservedTrans, gcReserve int, ageAware bool) *BlockManager {
	geo := array.Geometry()
	if reservedTrans < 0 || reservedTrans >= geo.BlocksPerLUN {
		panic(fmt.Sprintf("ftl: reservedTrans %d out of range for %d blocks/LUN", reservedTrans, geo.BlocksPerLUN))
	}
	if gcReserve < 1 {
		gcReserve = 1
	}
	bWords := array.BucketWords()
	bm := &BlockManager{
		array:         array,
		geo:           geo,
		reservedTrans: reservedTrans,
		gcReserve:     gcReserve,
		ageAware:      ageAware,
		luns:          make([]lunState, geo.LUNs()),
		bWords:        bWords,
		dataMask:      make([]uint64, bWords),
		scratch:       make([]uint64, bWords),
	}
	for b := reservedTrans; b < geo.BlocksPerLUN; b++ {
		bm.dataMask[b>>6] |= 1 << (uint(b) & 63)
	}
	cols := array.Columns()
	for lun := range bm.luns {
		st := &bm.luns[lun]
		st.openMask = make([]uint64, bWords)
		base := lun * geo.BlocksPerLUN
		free := make([]int, 0, geo.BlocksPerLUN-reservedTrans)
		for b := reservedTrans; b < geo.BlocksPerLUN; b++ {
			if cols.Bad[base+b] {
				continue // factory bad block: never part of any pool
			}
			free = append(free, b)
		}
		if ageAware {
			sort.SliceStable(free, func(i, j int) bool {
				return cols.EraseCount[base+free[i]] < cols.EraseCount[base+free[j]]
			})
			for _, b := range free {
				st.bucketAppend(cols.EraseCount[base+b], b)
			}
		} else {
			st.freeq = free
		}
		st.freeN = len(free)
	}
	return bm
}

// bucketAppend adds a block at the back of its erase-count bucket, creating
// the bucket in ascending-ec position when absent.
func (ls *lunState) bucketAppend(ec int32, block int) {
	pos := sort.Search(len(ls.buckets), func(i int) bool { return ls.buckets[i].ec >= ec })
	if pos < len(ls.buckets) && ls.buckets[pos].ec == ec {
		ls.buckets[pos].blocks = append(ls.buckets[pos].blocks, block)
		return
	}
	var blocks []int
	if n := len(ls.spare); n > 0 {
		blocks = ls.spare[n-1]
		ls.spare[n-1] = nil
		ls.spare = ls.spare[:n-1]
	}
	ls.buckets = append(ls.buckets, ecBucket{})
	copy(ls.buckets[pos+1:], ls.buckets[pos:])
	ls.buckets[pos] = ecBucket{ec: ec, blocks: append(blocks, block)}
}

// dropBucket removes the emptied bucket at pos and keeps its block slice for
// the next bucket bucketAppend creates.
func (ls *lunState) dropBucket(pos int) {
	ls.spare = append(ls.spare, ls.buckets[pos].blocks[:0])
	ls.buckets = append(ls.buckets[:pos], ls.buckets[pos+1:]...)
}

// ReservedTrans returns the number of translation blocks per LUN.
func (bm *BlockManager) ReservedTrans() int { return bm.reservedTrans }

// GCReserve returns the per-LUN free-block floor kept for internal streams.
func (bm *BlockManager) GCReserve() int { return bm.gcReserve }

// LUNs returns the number of LUNs the manager spans.
func (bm *BlockManager) LUNs() int { return len(bm.luns) }

// PagesPerBlock returns the page count of one erase block.
func (bm *BlockManager) PagesPerBlock() int { return bm.geo.PagesPerBlock }

// DataBlocksPerLUN returns the block count of the data region per LUN,
// including any bad blocks.
func (bm *BlockManager) DataBlocksPerLUN() int { return bm.geo.BlocksPerLUN - bm.reservedTrans }

// DataPages returns the total usable physical page count of the data region
// (bad blocks excluded) — the basis for the exported logical capacity.
func (bm *BlockManager) DataPages() int {
	pages := 0
	for lun := range bm.luns {
		blocks, _ := bm.WearStats(lun)
		pages += blocks * bm.geo.PagesPerBlock
	}
	return pages
}

// FreeCount returns the number of fully free data blocks in a LUN (open
// blocks being filled do not count).
func (bm *BlockManager) FreeCount(lun int) int { return bm.luns[lun].freeN }

// Alloc returns the next physical page for a write on the given LUN and
// stream. It returns ErrOutOfSpace if only the GC reserve remains and the
// stream is external, or ErrNoFreeBlock if the LUN is exhausted entirely.
func (bm *BlockManager) Alloc(lun int, stream Stream) (flash.PPA, error) {
	st := &bm.luns[lun]
	ob := &st.open[stream]
	if !ob.active {
		b, err := bm.takeFree(lun, stream)
		if err != nil {
			return flash.PPA{}, err
		}
		*ob = openBlock{block: b, active: true}
		st.openCount++
		st.openMask[b>>6] |= 1 << (uint(b) & 63)
	}
	ppa := flash.PPA{LUN: lun, Block: ob.block, Page: ob.next}
	ob.next++
	if ob.next >= bm.geo.PagesPerBlock {
		st.openMask[ob.block>>6] &^= 1 << (uint(ob.block) & 63)
		ob.active = false
		st.openCount--
	}
	return ppa, nil
}

// CanAlloc reports whether Alloc would succeed for the stream on this LUN.
func (bm *BlockManager) CanAlloc(lun int, stream Stream) bool {
	st := &bm.luns[lun]
	if st.open[stream].active {
		return true
	}
	if stream.internal() {
		return st.freeN > 0
	}
	return st.freeN > bm.gcReserve
}

func (bm *BlockManager) takeFree(lun int, stream Stream) (int, error) {
	st := &bm.luns[lun]
	if st.freeN == 0 {
		return 0, fmt.Errorf("%w: lun %d stream %v", ErrNoFreeBlock, lun, stream)
	}
	if !stream.internal() && st.freeN <= bm.gcReserve {
		return 0, fmt.Errorf("%w: lun %d stream %v (%d free)", ErrOutOfSpace, lun, stream, st.freeN)
	}
	st.freeN--
	if !bm.ageAware {
		b := st.freeq[st.freeHead]
		st.freeHead++
		if st.freeHead == len(st.freeq) {
			st.freeq = st.freeq[:0]
			st.freeHead = 0
		}
		return b, nil
	}
	var b int
	if stream.cold() {
		// Oldest block for cold data: back of the highest-count bucket.
		bkt := &st.buckets[len(st.buckets)-1]
		b = bkt.blocks[len(bkt.blocks)-1]
		bkt.blocks = bkt.blocks[:len(bkt.blocks)-1]
		if bkt.empty() {
			st.dropBucket(len(st.buckets) - 1)
		}
	} else {
		// Youngest block: front of the lowest-count bucket.
		bkt := &st.buckets[0]
		b = bkt.blocks[bkt.head]
		bkt.head++
		if bkt.empty() {
			st.dropBucket(0)
		}
	}
	return b, nil
}

// Release returns an erased block to the free pool. The controller calls it
// after an erase completes.
func (bm *BlockManager) Release(b flash.BlockID) {
	st := &bm.luns[b.LUN]
	st.freeN++
	if !bm.ageAware {
		st.freeq = append(st.freeq, b.Block)
		return
	}
	// The bucket list keeps the pool ordered young -> old by erase count so
	// dynamic wear leveling can pick from either end.
	ec := bm.array.Columns().EraseCount[bm.geo.BlockIndex(b)]
	st.bucketAppend(ec, b.Block)
}

// Condemn removes a retiring block from the manager's books: an open write
// frontier pointing at it is closed (the stream opens a fresh block on its
// next allocation) and a free-pool entry is dropped. The controller calls it
// when a block grows bad mid-run — the pool shrinks, and the block never
// circulates again. Blocks the manager no longer tracks (a GC victim between
// selection and release) condemn to a no-op.
func (bm *BlockManager) Condemn(b flash.BlockID) {
	st := &bm.luns[b.LUN]
	for s := range st.open {
		ob := &st.open[s]
		if ob.active && ob.block == b.Block {
			st.openMask[b.Block>>6] &^= 1 << (uint(b.Block) & 63)
			ob.active = false
			st.openCount--
		}
	}
	if !bm.ageAware {
		for i := st.freeHead; i < len(st.freeq); i++ {
			if st.freeq[i] == b.Block {
				st.freeq = append(st.freeq[:i], st.freeq[i+1:]...)
				st.freeN--
				break
			}
		}
		return
	}
	for bi := range st.buckets {
		bkt := &st.buckets[bi]
		for i := bkt.head; i < len(bkt.blocks); i++ {
			if bkt.blocks[i] == b.Block {
				bkt.blocks = append(bkt.blocks[:i], bkt.blocks[i+1:]...)
				st.freeN--
				if bkt.empty() {
					st.dropBucket(bi)
				}
				return
			}
		}
	}
}

// IsOpen reports whether the block is currently an open write frontier.
func (bm *BlockManager) IsOpen(b flash.BlockID) bool {
	return bm.luns[b.LUN].openMask[b.Block>>6]&(1<<(uint(b.Block)&63)) != 0
}

// OpenStreams returns how many streams have an open block on the LUN.
func (bm *BlockManager) OpenStreams(lun int) int { return bm.luns[lun].openCount }

// WearStats returns the non-bad data-region block count and the sum of
// their erase counts — the wear-leveling scan's first pass, computed as one
// pure column walk.
func (bm *BlockManager) WearStats(lun int) (blocks, eraseSum int) {
	cols := bm.array.Columns()
	base := lun * bm.geo.BlocksPerLUN
	for blk := bm.reservedTrans; blk < bm.geo.BlocksPerLUN; blk++ {
		if cols.Bad[base+blk] {
			continue
		}
		blocks++
		eraseSum += int(cols.EraseCount[base+blk])
	}
	return blocks, eraseSum
}

// VictimCandidates calls fn for every data-region block in the LUN that is
// eligible as a GC or WL victim: programmed at least partially, not free,
// not bad, and not an open write frontier. Frontier membership is one bit
// test against the open mask. fn receives the block and its index into the
// Columns view, from which it reads whatever it ranks by.
func (bm *BlockManager) VictimCandidates(lun int, fn func(b flash.BlockID, i int)) {
	cols := bm.array.Columns()
	st := &bm.luns[lun]
	base := lun * bm.geo.BlocksPerLUN
	for blk := bm.reservedTrans; blk < bm.geo.BlocksPerLUN; blk++ {
		i := base + blk
		if cols.Bad[i] || cols.WritePtr[i] == 0 || st.openMask[blk>>6]&(1<<(uint(blk)&63)) != 0 {
			continue
		}
		fn(flash.BlockID{LUN: lun, Block: blk}, i)
	}
}

// Columns returns the array's block metadata columns, indexed as the
// VictimCandidates callback's i. The view aliases live state: read it within
// the event, never write or retain it.
func (bm *BlockManager) Columns() flash.BlockColumns { return bm.array.Columns() }

// MinValidVictim returns the GC victim a greedy linear scan over
// VictimCandidates would pick: the candidate with the fewest valid pages,
// ties toward the lowest block index, refusing blocks whose every page is
// live. It answers from the array's (LUN, valid-count) bucket bitsets in
// O(pagesPerBlock · words) instead of touching every block.
func (bm *BlockManager) MinValidVictim(lun int) (flash.BlockID, int, bool) {
	st := &bm.luns[lun]
	for w := 0; w < bm.bWords; w++ {
		bm.scratch[w] = bm.dataMask[w] &^ st.openMask[w]
	}
	blk, valid, ok := bm.array.MinValidBlock(lun, bm.scratch, bm.geo.PagesPerBlock)
	if !ok {
		return flash.BlockID{}, 0, false
	}
	return flash.BlockID{LUN: lun, Block: blk}, valid, true
}
