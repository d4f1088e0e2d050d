package flash

import (
	"fmt"

	"eagletree/internal/fault"
	"eagletree/internal/sim"
)

// Schedule reports when a flash operation starts and completes, as computed
// against current channel and LUN occupancy. Start is when the first bus
// cycle happens; Done is when the operation's result is available (data
// transferred for reads, programmed for writes, erased for erases).
type Schedule struct {
	Start sim.Time
	Done  sim.Time
}

// Latency returns the span from request to completion, given the time the
// operation was requested.
func (s Schedule) Latency(requested sim.Time) sim.Duration { return s.Done.Sub(requested) }

// Counters aggregates raw hardware operation counts, the denominator for
// write amplification and wear statistics.
type Counters struct {
	Reads     uint64
	Writes    uint64
	Erases    uint64
	Copybacks uint64
}

// Array is the flash memory array: page and block state plus channel and LUN
// occupancy. It enforces NAND constraints (sequential programming within a
// block, no overwrite without erase) and computes operation timing, but makes
// no policy decisions.
//
// Block metadata is stored as struct-of-arrays columns indexed by BlockIndex
// (see BlockColumns): GC victim selection and wear-leveling scans walk one
// column end to end, and a column of int32s keeps an entire full-scale LUN's
// worth of state within a few cache lines.
type Array struct {
	geo    Geometry
	timing Timing
	feat   Features

	// A restored array adopts the snapshot's page-state column (pagesShared)
	// and copies it on its first write; arrays that only read share one.
	pages       []PageState
	pagesShared bool

	// Per-block metadata columns, indexed by Geometry.BlockIndex. A block is
	// free iff it is not bad and its write pointer is 0.
	eraseCount []int32
	lastErase  []sim.Time
	validPages []int32
	writePtr   []int32
	bad        []bool

	// buckets indexes programmed, non-bad blocks by (LUN, valid-page count):
	// row (lun*(pagesPerBlock+1) + v) holds a bWords-word bitset of block
	// indexes within the LUN whose ValidPages == v. Membership invariant: a
	// block is in exactly one bucket of its LUN iff WritePtr > 0 && !Bad.
	// Greedy victim selection reads the lowest non-empty eligible bucket in
	// O(pagesPerBlock · words) instead of scanning every block's metadata.
	buckets []uint64
	bWords  int

	channels []resource
	luns     []resource

	counters Counters

	// injector, when non-nil, is consulted on every program and erase of
	// blocks >= injectFrom (the data region). See SetInjector.
	injector   fault.Model
	injectFrom int
}

// NewArray builds an array with all pages free. It panics on invalid
// geometry or timing: configurations are validated once at the public API
// boundary and an invalid one here is a bug.
func NewArray(geo Geometry, timing Timing, feat Features) *Array {
	a := newArray(geo, timing, feat)
	a.pages = make([]PageState, geo.Pages())
	return a
}

// newArray builds everything but the page-state column: NewArray's is an
// erased device's, RestoreArray's a snapshot's.
func newArray(geo Geometry, timing Timing, feat Features) *Array {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if err := timing.Validate(); err != nil {
		panic(err)
	}
	nb := geo.Blocks()
	bWords := (geo.BlocksPerLUN + 63) / 64
	return &Array{
		geo:        geo,
		timing:     timing,
		feat:       feat,
		eraseCount: make([]int32, nb),
		lastErase:  make([]sim.Time, nb),
		validPages: make([]int32, nb),
		writePtr:   make([]int32, nb),
		bad:        make([]bool, nb),
		buckets:    make([]uint64, geo.LUNs()*(geo.PagesPerBlock+1)*bWords),
		bWords:     bWords,
		channels:   make([]resource, geo.Channels),
		luns:       make([]resource, geo.LUNs()),
	}
}

// own gives the array a private page-state column before its first write.
// Out of line and unannotated: the hot write paths pay one predictable branch.
func (a *Array) own() {
	a.pages = append([]PageState(nil), a.pages...)
	a.pagesShared = false
}

// Geometry returns the array's shape.
func (a *Array) Geometry() Geometry { return a.geo }

// Timing returns the chip timing parameters.
func (a *Array) Timing() Timing { return a.timing }

// Features returns the advanced command support flags.
func (a *Array) Features() Features { return a.feat }

// Counters returns cumulative operation counts.
func (a *Array) Counters() Counters { return a.counters }

// PageState returns the state of one physical page.
func (a *Array) PageState(p PPA) PageState { return a.pages[a.geo.Index(p)] }

// LUNFreeAt returns the first instant the LUN has no reservation after it.
func (a *Array) LUNFreeAt(lun int) sim.Time { return a.luns[lun].freeAt() }

// ChannelFreeAt returns the first instant the channel has no reservation
// after it.
func (a *Array) ChannelFreeAt(ch int) sim.Time { return a.channels[ch].freeAt() }

// LUNBusy reports whether the LUN has a reservation covering now.
func (a *Array) LUNBusy(lun int, now sim.Time) bool { return a.luns[lun].busyAt(now) }

// Prune discards resource reservations that ended at or before now.
//
//eagletree:hotpath
func (a *Array) Prune(now sim.Time) {
	for i := range a.channels {
		a.channels[i].prune(now)
	}
	for i := range a.luns {
		a.luns[i].prune(now)
	}
}

func (a *Array) checkBounds(p PPA) error {
	if !a.geo.Contains(p) {
		return fmt.Errorf("%w: %v", ErrOutOfBounds, p)
	}
	return nil
}

// bucketRow returns the offset of the (lun, valid-count) bucket's bitset.
//
//eagletree:hotpath
func (a *Array) bucketRow(lun, valid int) int {
	return (lun*(a.geo.PagesPerBlock+1) + valid) * a.bWords
}

// bucketAdd inserts a LUN-local block index into the bucket for valid count v.
//
//eagletree:hotpath
func (a *Array) bucketAdd(lun, blk, v int) {
	a.buckets[a.bucketRow(lun, v)+blk>>6] |= 1 << (uint(blk) & 63)
}

// bucketDel removes a LUN-local block index from the bucket for valid count v.
//
//eagletree:hotpath
func (a *Array) bucketDel(lun, blk, v int) {
	a.buckets[a.bucketRow(lun, v)+blk>>6] &^= 1 << (uint(blk) & 63)
}

// Cold error constructors for the annotated schedule paths. Constraint
// violations are controller bugs that panic upstream; formatting the message
// allocates, so it stays out of the hot bodies.
func errPPA(sentinel error, what string, p PPA) error {
	if what == "" {
		return fmt.Errorf("%w: %v", sentinel, p)
	}
	return fmt.Errorf("%w: %s %v", sentinel, what, p)
}

func errBlock(sentinel error, what string, b BlockID) error {
	if what == "" {
		return fmt.Errorf("%w: %v", sentinel, b)
	}
	return fmt.Errorf("%w: %s %v", sentinel, what, b)
}

func errReadState(p PPA, st PageState) error {
	return fmt.Errorf("%w: read %v (%v)", ErrNotValid, p, st)
}

func errProgramOrder(what string, p PPA, next int) error {
	return fmt.Errorf("%w: %s %v, next programmable page is %d", ErrProgramOrder, what, p, next)
}

func errEraseLive(b BlockID, live int) error {
	return fmt.Errorf("%w: erase %v with %d live pages", ErrEraseLivePage, b, live)
}

func errCrossLUN(src, dst PPA) error {
	return fmt.Errorf("%w: %v -> %v", ErrCrossLUN, src, dst)
}

// ScheduleRead books a page read at or after `at` and returns its schedule.
// The page must hold valid data.
//
// Phases: command on the channel, sense inside the LUN, data transfer back on
// the channel. With interleaving the channel is free for other LUNs during
// the sense window; without it the channel is held end to end.
//
//eagletree:hotpath
func (a *Array) ScheduleRead(p PPA, at sim.Time) (Schedule, error) {
	if err := a.checkBounds(p); err != nil {
		return Schedule{}, err
	}
	if a.pages[a.geo.Index(p)] != PageValid {
		return Schedule{}, errReadState(p, a.pages[a.geo.Index(p)])
	}
	ch := &a.channels[a.geo.ChannelOf(p.LUN)]
	lun := &a.luns[p.LUN]
	t := a.timing
	var sched Schedule
	if a.feat.Interleaving {
		earliest := at
		if f := lun.freeAt(); f > earliest {
			earliest = f
		}
		cmdStart := ch.reserveEarliest(earliest, t.Cmd)
		senseEnd := cmdStart.Add(t.Cmd + t.PageRead)
		xferStart := ch.reserveEarliest(senseEnd, t.Transfer)
		done := xferStart.Add(t.Transfer)
		// The LUN holds the page register from command until data-out ends.
		lun.reserveTail(cmdStart, done.Sub(cmdStart))
		sched = Schedule{Start: cmdStart, Done: done}
	} else {
		total := t.Cmd + t.PageRead + t.Transfer
		start := at
		if f := ch.freeAt(); f > start {
			start = f
		}
		if f := lun.freeAt(); f > start {
			start = f
		}
		ch.reserveTail(start, total)
		lun.reserveTail(start, total)
		sched = Schedule{Start: start, Done: start.Add(total)}
	}
	a.counters.Reads++
	return sched, nil
}

// ScheduleWrite books a page program at or after `at`. NAND constraints are
// enforced: the page must be the block's next programmable page, the page
// must be free, and the block must not be bad. On success the page becomes
// valid immediately in simulator state (the single-threaded event loop makes
// issue-time state transitions safe).
//
//eagletree:hotpath
func (a *Array) ScheduleWrite(p PPA, at sim.Time) (Schedule, error) {
	if err := a.checkBounds(p); err != nil {
		return Schedule{}, err
	}
	bi := a.geo.BlockIndex(p.BlockOf())
	switch {
	case a.bad[bi]:
		return Schedule{}, errPPA(ErrBadBlock, "write", p)
	case p.Page != int(a.writePtr[bi]):
		return Schedule{}, errProgramOrder("write", p, int(a.writePtr[bi]))
	case a.pages[a.geo.Index(p)] != PageFree:
		return Schedule{}, errPPA(ErrNotFree, "write", p)
	}

	ch := &a.channels[a.geo.ChannelOf(p.LUN)]
	lun := &a.luns[p.LUN]
	t := a.timing
	var sched Schedule
	if a.feat.Interleaving {
		earliest := at
		if f := lun.freeAt(); f > earliest {
			earliest = f
		}
		xferStart := ch.reserveEarliest(earliest, t.Cmd+t.Transfer)
		done := xferStart.Add(t.Cmd + t.Transfer + t.PageWrite)
		lun.reserveTail(xferStart, done.Sub(xferStart))
		sched = Schedule{Start: xferStart, Done: done}
	} else {
		total := t.Cmd + t.Transfer + t.PageWrite
		start := at
		if f := ch.freeAt(); f > start {
			start = f
		}
		if f := lun.freeAt(); f > start {
			start = f
		}
		ch.reserveTail(start, total)
		lun.reserveTail(start, total)
		sched = Schedule{Start: start, Done: start.Add(total)}
	}

	if ferr := a.injectProgram(p, bi, sched.Done); ferr != nil {
		return sched, ferr
	}
	v := int(a.validPages[bi])
	if a.writePtr[bi] != 0 { // a free block is in no bucket yet
		a.bucketDel(p.LUN, p.Block, v)
	}
	a.bucketAdd(p.LUN, p.Block, v+1)
	if a.pagesShared {
		a.own()
	}
	a.pages[a.geo.Index(p)] = PageValid
	a.writePtr[bi]++
	a.validPages[bi]++
	a.counters.Writes++
	return sched, nil
}

// ScheduleErase books a block erase at or after `at`. Erasing a block that
// still holds valid pages is refused: the GC layer must migrate live data
// first, and silently destroying it would hide GC bugs.
//
//eagletree:hotpath
func (a *Array) ScheduleErase(b BlockID, at sim.Time) (Schedule, error) {
	if !a.geo.Contains(PPA{LUN: b.LUN, Block: b.Block}) {
		return Schedule{}, errBlock(ErrOutOfBounds, "", b)
	}
	bi := a.geo.BlockIndex(b)
	if a.bad[bi] {
		return Schedule{}, errBlock(ErrBadBlock, "erase", b)
	}
	if a.validPages[bi] > 0 {
		return Schedule{}, errEraseLive(b, int(a.validPages[bi]))
	}

	ch := &a.channels[a.geo.ChannelOf(b.LUN)]
	lun := &a.luns[b.LUN]
	t := a.timing
	var sched Schedule
	if a.feat.Interleaving {
		earliest := at
		if f := lun.freeAt(); f > earliest {
			earliest = f
		}
		cmdStart := ch.reserveEarliest(earliest, t.Cmd)
		done := cmdStart.Add(t.Cmd + t.BlockErase)
		lun.reserveTail(cmdStart, done.Sub(cmdStart))
		sched = Schedule{Start: cmdStart, Done: done}
	} else {
		total := t.Cmd + t.BlockErase
		start := at
		if f := ch.freeAt(); f > start {
			start = f
		}
		if f := lun.freeAt(); f > start {
			start = f
		}
		ch.reserveTail(start, total)
		lun.reserveTail(start, total)
		sched = Schedule{Start: start, Done: start.Add(total)}
	}

	if ferr := a.injectErase(b, bi, sched.Done); ferr != nil {
		return sched, ferr
	}
	base := a.geo.Index(PPA{LUN: b.LUN, Block: b.Block, Page: 0})
	if a.pagesShared {
		a.own()
	}
	for i := 0; i < a.geo.PagesPerBlock; i++ {
		a.pages[base+i] = PageFree
	}
	if a.writePtr[bi] != 0 {
		a.bucketDel(b.LUN, b.Block, 0) // live pages were ruled out above
	}
	a.writePtr[bi] = 0
	a.validPages[bi] = 0
	a.eraseCount[bi]++
	a.lastErase[bi] = sched.Done
	a.counters.Erases++
	return sched, nil
}

// ScheduleCopyback books an intra-LUN page move through the chip's internal
// page register: one sense plus one program, with only a command cycle on the
// channel and no data transfer. The destination must satisfy the same NAND
// constraints as a write; the source stays valid until the caller invalidates
// it (GC erases the whole source block afterwards).
//
//eagletree:hotpath
func (a *Array) ScheduleCopyback(src, dst PPA, at sim.Time) (Schedule, error) {
	if !a.feat.Copyback {
		return Schedule{}, ErrCopybackOff
	}
	if err := a.checkBounds(src); err != nil {
		return Schedule{}, err
	}
	if err := a.checkBounds(dst); err != nil {
		return Schedule{}, err
	}
	if src.LUN != dst.LUN {
		return Schedule{}, errCrossLUN(src, dst)
	}
	if a.pages[a.geo.Index(src)] != PageValid {
		return Schedule{}, errPPA(ErrNotValid, "copyback from", src)
	}
	bi := a.geo.BlockIndex(dst.BlockOf())
	switch {
	case a.bad[bi]:
		return Schedule{}, errPPA(ErrBadBlock, "copyback to", dst)
	case dst.Page != int(a.writePtr[bi]):
		return Schedule{}, errProgramOrder("copyback to", dst, int(a.writePtr[bi]))
	case a.pages[a.geo.Index(dst)] != PageFree:
		return Schedule{}, errPPA(ErrNotFree, "copyback to", dst)
	}

	ch := &a.channels[a.geo.ChannelOf(src.LUN)]
	lun := &a.luns[src.LUN]
	t := a.timing
	opLen := t.PageRead + t.PageWrite
	var sched Schedule
	if a.feat.Interleaving {
		earliest := at
		if f := lun.freeAt(); f > earliest {
			earliest = f
		}
		cmdStart := ch.reserveEarliest(earliest, t.Cmd)
		done := cmdStart.Add(t.Cmd + opLen)
		lun.reserveTail(cmdStart, done.Sub(cmdStart))
		sched = Schedule{Start: cmdStart, Done: done}
	} else {
		total := t.Cmd + opLen
		start := at
		if f := ch.freeAt(); f > start {
			start = f
		}
		if f := lun.freeAt(); f > start {
			start = f
		}
		ch.reserveTail(start, total)
		lun.reserveTail(start, total)
		sched = Schedule{Start: start, Done: start.Add(total)}
	}

	if ferr := a.injectProgram(dst, bi, sched.Done); ferr != nil {
		a.counters.Writes-- // injectProgram charged a write; this was a copyback
		a.counters.Copybacks++
		return sched, ferr
	}
	v := int(a.validPages[bi])
	if a.writePtr[bi] != 0 { // a free block is in no bucket yet
		a.bucketDel(dst.LUN, dst.Block, v)
	}
	a.bucketAdd(dst.LUN, dst.Block, v+1)
	if a.pagesShared {
		a.own()
	}
	a.pages[a.geo.Index(dst)] = PageValid
	a.writePtr[bi]++
	a.validPages[bi]++
	a.counters.Copybacks++
	return sched, nil
}

// Invalidate marks a valid page stale (an overwrite left a before-image).
//
//eagletree:hotpath
func (a *Array) Invalidate(p PPA) error {
	if err := a.checkBounds(p); err != nil {
		return err
	}
	idx := a.geo.Index(p)
	switch a.pages[idx] {
	case PageValid:
		if a.pagesShared {
			a.own()
		}
		a.pages[idx] = PageInvalid
		bi := a.geo.BlockIndex(p.BlockOf())
		v := int(a.validPages[bi])
		a.validPages[bi]--
		if !a.bad[bi] { // retired blocks are not bucket members
			a.bucketDel(p.LUN, p.Block, v)
			a.bucketAdd(p.LUN, p.Block, v-1)
		}
		return nil
	case PageInvalid:
		return errPPA(ErrAlreadyStale, "", p)
	default:
		return errPPA(ErrNotValid, "invalidate", p)
	}
}

// MarkBad retires a block. A free block leaves the free pool; a bad block is
// never erased, written or counted free again.
//
//eagletree:hotpath
func (a *Array) MarkBad(b BlockID) {
	bi := a.geo.BlockIndex(b)
	if a.bad[bi] {
		return
	}
	if a.writePtr[bi] != 0 {
		a.bucketDel(b.LUN, b.Block, int(a.validPages[bi]))
	}
	a.bad[bi] = true
}

// ValidPagesIn returns the live-page count of a block (GC victim selection).
func (a *Array) ValidPagesIn(b BlockID) int {
	return int(a.validPages[a.geo.BlockIndex(b)])
}
