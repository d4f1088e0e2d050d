package ftl

import (
	"container/list"
	"fmt"
	"sort"

	"eagletree/internal/flash"
	"eagletree/internal/iface"
)

// This file implements device-state snapshots for the FTL layer: the full
// mapping tables (page map, or DFTL with CMT contents, GTD and translation
// ring) and the block manager's allocation state (free pools and open write
// frontiers). Snapshots are taken at quiescent points — no translation chain
// in flight — so no transient per-request state appears here.

// PageMapState is the serializable state of a RAM page map: the forward
// column alone. The reverse column is derived from it on restore.
type PageMapState struct {
	Forward []int32
	Mapped  int
}

// State deep-copies the page map for a snapshot.
func (pm *PageMap) State() PageMapState {
	return PageMapState{Forward: append([]int32(nil), pm.forward...), Mapped: pm.mapped}
}

// RestorePageMap builds a page map that continues from a snapshot of nLPNs
// logical entries. Every forward entry must be -1 or a distinct page below
// geo.Pages() with Mapped of them bound, as snapshot.Decode checks. The
// column is adopted, not copied — shared with every map restored from st
// until this one first mutates — so the caller must not modify it afterwards.
func RestorePageMap(geo flash.Geometry, nLPNs int, st PageMapState) (*PageMap, error) {
	if len(st.Forward) != nLPNs {
		return nil, fmt.Errorf("%w: snapshot page map has %d LPNs, map has %d", ErrStateMismatch, len(st.Forward), nLPNs)
	}
	return &PageMap{geo: geo, forward: st.Forward, mapped: st.Mapped, shared: true}, nil
}

// CMTEntryState is one cached mapping entry, in LRU order.
type CMTEntryState struct {
	LPN   iface.LPN
	Dirty bool
}

// GTDEntryState binds one translation virtual page to its flash location.
type GTDEntryState struct {
	TVPN int
	PPA  flash.PPA
}

// RingBlockState is one translation-log block's state.
type RingBlockState struct {
	ID       flash.BlockID
	WritePtr int
	Live     int
	TVPNs    []int32
}

// DFTLState is the serializable state of a DFTL mapper: the authoritative
// map, the CMT contents in exact LRU order (front first), the global
// translation directory, and the translation ring.
type DFTLState struct {
	Truth PageMapState
	CMT   []CMTEntryState
	GTD   []GTDEntryState
	Ring  []RingBlockState
	Cur   int
	Stats DFTLStats
}

// State deep-copies the DFTL for a snapshot. CMT entries are recorded from
// most to least recently used; GTD entries are sorted by TVPN so snapshots of
// identical state are byte-identical.
func (d *DFTL) State() DFTLState {
	st := DFTLState{
		Truth: d.truth.State(),
		Cur:   d.cur,
		Stats: d.stats,
	}
	for el := d.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cmtEntry)
		st.CMT = append(st.CMT, CMTEntryState{LPN: e.lpn, Dirty: e.dirty})
	}
	st.GTD = make([]GTDEntryState, 0, len(d.gtd))
	for tvpn, ppa := range d.gtd {
		st.GTD = append(st.GTD, GTDEntryState{TVPN: tvpn, PPA: ppa})
	}
	sort.Slice(st.GTD, func(i, j int) bool { return st.GTD[i].TVPN < st.GTD[j].TVPN })
	st.Ring = make([]RingBlockState, len(d.ring))
	for i := range d.ring {
		rb := &d.ring[i]
		st.Ring[i] = RingBlockState{
			ID:       rb.id,
			WritePtr: rb.writePtr,
			Live:     rb.live,
			TVPNs:    append([]int32(nil), rb.tvpns...),
		}
	}
	return st
}

// RestoreState overwrites the cache, directory and translation ring of a
// DFTL built by NewDFTLOver on the snapshot's restored truth map (st.Truth is
// not read here). The snapshot must fit: same ring layout, a CMT no larger.
func (d *DFTL) RestoreState(st DFTLState) error {
	if len(st.CMT) > d.capacity {
		return fmt.Errorf("%w: snapshot CMT holds %d entries, capacity is %d", ErrStateMismatch, len(st.CMT), d.capacity)
	}
	if len(st.Ring) != len(d.ring) {
		return fmt.Errorf("%w: snapshot has %d translation blocks, ring has %d", ErrStateMismatch, len(st.Ring), len(d.ring))
	}
	if st.Cur < 0 || st.Cur >= len(d.ring) {
		return fmt.Errorf("%w: snapshot ring frontier %d out of range", ErrStateMismatch, st.Cur)
	}
	d.lru.Init()
	d.cmt = make(map[iface.LPN]*list.Element, len(st.CMT))
	for i := len(st.CMT) - 1; i >= 0; i-- {
		e := st.CMT[i]
		d.cmt[e.LPN] = d.lru.PushFront(&cmtEntry{lpn: e.LPN, dirty: e.Dirty})
	}
	d.gtd = make(map[int]flash.PPA, len(st.GTD))
	for _, e := range st.GTD {
		d.gtd[e.TVPN] = e.PPA
	}
	for i := range d.ring {
		rb := &d.ring[i]
		src := st.Ring[i]
		if src.ID != rb.id {
			return fmt.Errorf("%w: snapshot ring block %d is %v, ring has %v", ErrStateMismatch, i, src.ID, rb.id)
		}
		if len(src.TVPNs) != len(rb.tvpns) {
			return fmt.Errorf("%w: snapshot ring block %v has %d pages, ring has %d", ErrStateMismatch, src.ID, len(src.TVPNs), len(rb.tvpns))
		}
		rb.writePtr = src.WritePtr
		rb.live = src.Live
		copy(rb.tvpns, src.TVPNs)
	}
	d.cur = st.Cur
	d.stats = st.Stats
	return nil
}

// OpenBlockState is one open write frontier: the stream it serves, the block
// it fills and the next page to program.
type OpenBlockState struct {
	Stream uint8
	Block  int
	Next   int
}

// LUNAllocState is one LUN's allocation state: the free pool in exact order
// (age-aware allocation pops from either end, so order is behavior) and the
// open frontiers.
type LUNAllocState struct {
	Free []int
	Open []OpenBlockState
}

// BlockManagerState is the serializable allocation state of the data region.
type BlockManagerState struct {
	LUNs []LUNAllocState
}

// State deep-copies the block manager's allocation state for a snapshot.
// The free pool is flattened to the single young→old list the previous flat
// representation kept, so the encoding is independent of the in-memory
// structure (FIFO ring or erase-count buckets).
func (bm *BlockManager) State() BlockManagerState {
	st := BlockManagerState{LUNs: make([]LUNAllocState, len(bm.luns))}
	for lun := range bm.luns {
		ls := &bm.luns[lun]
		out := LUNAllocState{Free: make([]int, 0, ls.freeN)}
		if bm.ageAware {
			for bi := range ls.buckets {
				bkt := &ls.buckets[bi]
				out.Free = append(out.Free, bkt.blocks[bkt.head:]...)
			}
		} else {
			out.Free = append(out.Free, ls.freeq[ls.freeHead:]...)
		}
		for s := range ls.open {
			if ls.open[s].active {
				out.Open = append(out.Open, OpenBlockState{Stream: uint8(s), Block: ls.open[s].block, Next: ls.open[s].next})
			}
		}
		st.LUNs[lun] = out
	}
	return st
}

// RestoreState replaces a just-built block manager's allocation state. The
// array must already hold the matching snapshot: an age-aware pool re-buckets
// the flat free list by the blocks' restored erase counts.
func (bm *BlockManager) RestoreState(st BlockManagerState) error {
	if len(st.LUNs) != len(bm.luns) {
		return fmt.Errorf("%w: snapshot has %d LUN alloc states, manager has %d", ErrStateMismatch, len(st.LUNs), len(bm.luns))
	}
	cols := bm.array.Columns()
	for lun := range bm.luns {
		ls := &bm.luns[lun]
		src := st.LUNs[lun]
		ls.freeq = append(ls.freeq[:0], src.Free...)
		ls.freeHead = 0
		ls.buckets = ls.buckets[:0]
		ls.freeN = len(src.Free)
		if bm.ageAware {
			ls.freeq = ls.freeq[:0]
			base := lun * bm.geo.BlocksPerLUN
			for _, b := range src.Free {
				ls.bucketAppend(cols.EraseCount[base+b], b)
			}
		}
		for _, ob := range src.Open {
			if int(ob.Stream) >= NumStreams {
				return fmt.Errorf("%w: snapshot open block on unknown stream %d", ErrStateMismatch, ob.Stream)
			}
			if ls.open[ob.Stream].active {
				return fmt.Errorf("%w: snapshot has two open blocks on lun %d stream %d", ErrStateMismatch, lun, ob.Stream)
			}
			ls.open[ob.Stream] = openBlock{block: ob.Block, next: ob.Next, active: true}
			ls.openCount++
			ls.openMask[ob.Block>>6] |= 1 << (uint(ob.Block) & 63)
		}
	}
	return nil
}
