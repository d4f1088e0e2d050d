package ftl

import (
	"container/list"
	"fmt"

	"eagletree/internal/flash"
	"eagletree/internal/iface"
)

// DFTLStats counts cache and translation-log activity, for experiment
// reports comparing DFTL against the RAM-resident page map.
type DFTLStats struct {
	Hits        uint64
	Misses      uint64
	CleanEvicts uint64
	DirtyEvicts uint64
	TransReads  uint64
	TransWrites uint64
	TransErases uint64
}

type cmtEntry struct {
	lpn   iface.LPN
	dirty bool
}

// ringBlock is one translation block in the circular translation log.
type ringBlock struct {
	id       flash.BlockID
	writePtr int
	live     int
	tvpns    []int32 // page index -> tvpn stored there, -1 if stale/empty
}

// DFTL implements the demand-based FTL of Gupta et al. (ASPLOS 2009): the
// full page map lives on flash in translation pages, and only a cached
// subset (the CMT) is held in RAM. Misses read translation pages; dirty
// evictions write them. Translation pages live in a circular log over blocks
// reserved in every LUN, cleaned by migrating still-live translation pages
// forward — so mapping metadata competes for the flash array exactly like
// data does.
type DFTL struct {
	geo            flash.Geometry
	truth          *PageMap // authoritative map, standing in for flash-resident content
	entriesPerPage int

	cmt      map[iface.LPN]*list.Element
	lru      *list.List // front = most recent
	capacity int

	gtd  map[int]flash.PPA // tvpn -> current translation page location
	ring []ringBlock
	cur  int

	stats DFTLStats
}

// NewDFTL builds a DFTL over geometry geo with nLPNs logical pages, a CMT
// holding cmtEntries cached mappings, and reservedTrans translation blocks
// per LUN forming the translation ring. The ring is ordered across LUNs
// round-robin so translation load spreads over channels.
func NewDFTL(geo flash.Geometry, nLPNs, cmtEntries, reservedTrans int) *DFTL {
	return NewDFTLOver(NewPageMap(geo, nLPNs), cmtEntries, reservedTrans)
}

// NewDFTLOver is NewDFTL over a given authoritative map — an empty one, or
// one restored from a snapshot (RestoreState then fills in the rest).
func NewDFTLOver(truth *PageMap, cmtEntries, reservedTrans int) *DFTL {
	geo := truth.geo
	if cmtEntries < 1 {
		panic("ftl: DFTL needs a CMT of at least 1 entry")
	}
	if reservedTrans < 2 {
		panic("ftl: DFTL translation ring needs at least 2 blocks per LUN")
	}
	d := &DFTL{
		geo:            geo,
		truth:          truth,
		entriesPerPage: geo.PageSize / 8,
		cmt:            make(map[iface.LPN]*list.Element, cmtEntries),
		lru:            list.New(),
		capacity:       cmtEntries,
		gtd:            make(map[int]flash.PPA),
	}
	for blk := 0; blk < reservedTrans; blk++ {
		for lun := 0; lun < geo.LUNs(); lun++ {
			rb := ringBlock{
				id:    flash.BlockID{LUN: lun, Block: blk},
				tvpns: make([]int32, geo.PagesPerBlock),
			}
			for i := range rb.tvpns {
				rb.tvpns[i] = -1
			}
			d.ring = append(d.ring, rb)
		}
	}
	return d
}

// Name implements Mapper.
func (d *DFTL) Name() string { return "dftl" }

// Stats returns cache and translation-log counters.
func (d *DFTL) Stats() DFTLStats { return d.stats }

// CMTLen returns the current number of cached mapping entries.
func (d *DFTL) CMTLen() int { return d.lru.Len() }

func (d *DFTL) tvpn(lpn iface.LPN) int { return int(lpn) / d.entriesPerPage }

// Access implements Mapper. On a CMT hit it returns nil; on a miss it
// returns the translation ops (possible dirty-eviction write with ring
// maintenance, then the translation-page read) the controller must execute
// before the data IO.
func (d *DFTL) Access(lpn iface.LPN, write bool) []TransOp {
	if el, ok := d.cmt[lpn]; ok {
		d.stats.Hits++
		d.lru.MoveToFront(el)
		if write {
			el.Value.(*cmtEntry).dirty = true
		}
		return nil
	}
	d.stats.Misses++
	var ops []TransOp
	if d.lru.Len() >= d.capacity {
		back := d.lru.Back()
		victim := back.Value.(*cmtEntry)
		d.lru.Remove(back)
		delete(d.cmt, victim.lpn)
		if victim.dirty {
			d.stats.DirtyEvicts++
			ops = d.appendTranslationWrite(ops, d.tvpn(victim.lpn))
		} else {
			d.stats.CleanEvicts++
		}
	}
	if ppa, ok := d.gtd[d.tvpn(lpn)]; ok {
		d.stats.TransReads++
		ops = append(ops, TransOp{Kind: TransRead, PPA: ppa})
	}
	d.cmt[lpn] = d.lru.PushFront(&cmtEntry{lpn: lpn, dirty: write})
	return ops
}

// appendTranslationWrite appends the ops for writing one translation page:
// any ring maintenance (migrating live translation pages out of the next
// victim and erasing it), then the write itself.
func (d *DFTL) appendTranslationWrite(ops []TransOp, tvpn int) []TransOp {
	ops, ppa, old, hadOld := d.allocTransPage(ops, tvpn)
	d.stats.TransWrites++
	return append(ops, TransOp{Kind: TransWrite, PPA: ppa, Stale: old, HasStale: hadOld})
}

// allocTransPage finds the next translation-log page, advancing and cleaning
// the ring as needed, and records tvpn as its occupant. It returns the
// superseded copy's location, if one existed, so the executor can invalidate
// it on the array.
func (d *DFTL) allocTransPage(ops []TransOp, tvpn int) ([]TransOp, flash.PPA, flash.PPA, bool) {
	guard := 0
	for d.ring[d.cur].writePtr >= d.geo.PagesPerBlock {
		if guard++; guard > len(d.ring) {
			panic(fmt.Sprintf("%v: %d blocks cannot hold %d live translation pages",
				ErrRingFull, len(d.ring), len(d.gtd)))
		}
		ops = d.advanceRing(ops)
	}
	rb := &d.ring[d.cur]
	ppa := flash.PPA{LUN: rb.id.LUN, Block: rb.id.Block, Page: rb.writePtr}
	old, hadOld := d.bindTrans(rb, tvpn, ppa)
	return ops, ppa, old, hadOld
}

// bindTrans records that ppa now holds tvpn's translation page, returning
// the prior location (now stale) if one existed.
func (d *DFTL) bindTrans(rb *ringBlock, tvpn int, ppa flash.PPA) (flash.PPA, bool) {
	old, hadOld := d.gtd[tvpn]
	if hadOld {
		for i := range d.ring {
			orb := &d.ring[i]
			if orb.id.LUN == old.LUN && orb.id.Block == old.Block {
				if orb.tvpns[old.Page] == int32(tvpn) {
					orb.tvpns[old.Page] = -1
					orb.live--
				}
				break
			}
		}
	}
	d.gtd[tvpn] = ppa
	rb.tvpns[ppa.Page] = int32(tvpn)
	rb.live++
	rb.writePtr++
	return old, hadOld
}

// advanceRing moves the write frontier to the next (pre-erased) ring block
// and restores the invariant that the block after the frontier is erased:
// live translation pages in it are migrated forward, then it is erased.
func (d *DFTL) advanceRing(ops []TransOp) []TransOp {
	n := len(d.ring)
	d.cur = (d.cur + 1) % n
	victim := &d.ring[(d.cur+1)%n]
	if victim.writePtr == 0 {
		return ops // never written; already erased
	}
	for page := 0; page < d.geo.PagesPerBlock; page++ {
		tv := victim.tvpns[page]
		if tv < 0 {
			continue
		}
		src := flash.PPA{LUN: victim.id.LUN, Block: victim.id.Block, Page: page}
		d.stats.TransReads++
		ops = append(ops, TransOp{Kind: TransRead, PPA: src})
		cur := &d.ring[d.cur]
		if cur.writePtr >= d.geo.PagesPerBlock {
			// The frontier filled up mid-migration; this cannot happen while
			// the victim's live pages fit in an empty block, which they
			// always do (live <= PagesPerBlock and the frontier was erased).
			panic("ftl: translation ring frontier overflow during migration")
		}
		dst := flash.PPA{LUN: cur.id.LUN, Block: cur.id.Block, Page: cur.writePtr}
		old, hadOld := d.bindTrans(cur, int(tv), dst)
		d.stats.TransWrites++
		ops = append(ops, TransOp{Kind: TransWrite, PPA: dst, Stale: old, HasStale: hadOld})
	}
	d.stats.TransErases++
	ops = append(ops, TransOp{Kind: TransErase, Block: victim.id})
	victim.writePtr = 0
	victim.live = 0
	for i := range victim.tvpns {
		victim.tvpns[i] = -1
	}
	return ops
}

// Lookup implements Mapper.
//
//eagletree:hotpath
func (d *DFTL) Lookup(lpn iface.LPN) (flash.PPA, bool) { return d.truth.Lookup(lpn) }

// Map implements Mapper. The entry must have been brought into the CMT by a
// preceding Access call; mapping marks it dirty.
//
//eagletree:hotpath
func (d *DFTL) Map(lpn iface.LPN, ppa flash.PPA) (flash.PPA, bool) {
	if el, ok := d.cmt[lpn]; ok {
		el.Value.(*cmtEntry).dirty = true
	}
	return d.truth.Map(lpn, ppa)
}

// Unmap implements Mapper. Trimmed entries leave the CMT.
//
//eagletree:hotpath
func (d *DFTL) Unmap(lpn iface.LPN) (flash.PPA, bool) {
	if el, ok := d.cmt[lpn]; ok {
		d.lru.Remove(el)
		delete(d.cmt, lpn)
	}
	return d.truth.Unmap(lpn)
}

// LPNAt implements Mapper.
//
//eagletree:hotpath
func (d *DFTL) LPNAt(ppa flash.PPA) (iface.LPN, bool) { return d.truth.LPNAt(ppa) }

// RAMBytes implements Mapper: the CMT (two words per entry) plus the GTD
// (one PPA per translation page). The full map the simulator keeps as ground
// truth is *not* counted — on a real device it lives in the translation
// pages on flash.
func (d *DFTL) RAMBytes() int64 {
	return int64(d.capacity)*16 + int64(len(d.gtd))*8
}
