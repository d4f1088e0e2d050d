package flash

import (
	"errors"
	"fmt"

	"eagletree/internal/sim"
)

// PageState tracks the lifecycle of one physical page.
type PageState uint8

const (
	// PageFree means erased and programmable.
	PageFree PageState = iota
	// PageValid holds live data some logical page maps to.
	PageValid
	// PageInvalid holds a stale before-image awaiting garbage collection.
	PageInvalid
)

func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// BlockMeta is the per-erase-block bookkeeping the controller layers consult:
// garbage collection needs ValidPages, wear leveling needs EraseCount and
// LastErase, bad-block management needs Bad.
type BlockMeta struct {
	EraseCount int      // program/erase cycles so far (the block's "age")
	LastErase  sim.Time // when the block was last erased
	ValidPages int      // live pages in the block
	WritePtr   int      // next programmable page index (NAND programs in order)
	Bad        bool     // retired block, never used again
}

// Free reports whether the block is fully erased and unused.
func (b BlockMeta) Free() bool { return !b.Bad && b.WritePtr == 0 }

// Full reports whether every page has been programmed.
func (b BlockMeta) Full(pagesPerBlock int) bool { return b.WritePtr >= pagesPerBlock }

// InvalidPages returns the count of stale pages given the geometry.
func (b BlockMeta) InvalidPages() int { return b.WritePtr - b.ValidPages }

// Interval is one booked busy span of a channel or LUN, exported for
// device-state snapshots. Reservations are half-open: [Start, End).
type Interval struct {
	Start, End sim.Time
}

// ResourceState is the reservation list of one channel or LUN.
type ResourceState struct {
	Intervals []Interval
}

// ArrayState is the complete serializable state of a flash array: every
// page's lifecycle state, every block's metadata, operation counters, free
// counts and the channel/LUN reservation lists. Together with the geometry,
// timing and feature configuration (which live in the owning Config, not
// here) it fully determines all future array behavior.
type ArrayState struct {
	Pages      []PageState
	Blocks     []BlockMeta
	FreePerLUN []int
	Counters   Counters
	Channels   []ResourceState
	LUNs       []ResourceState
}

// State deep-copies the array's mutable state for a snapshot. The block
// columns are reassembled into the AoS []BlockMeta so the snapshot encoding
// is independent of the in-memory layout.
func (a *Array) State() ArrayState {
	blocks := make([]BlockMeta, len(a.eraseCount))
	for i := range blocks {
		blocks[i] = BlockMeta{
			EraseCount: int(a.eraseCount[i]),
			LastErase:  a.lastErase[i],
			ValidPages: int(a.validPages[i]),
			WritePtr:   int(a.writePtr[i]),
			Bad:        a.bad[i],
		}
	}
	st := ArrayState{
		Pages:      append([]PageState(nil), a.pages...),
		Blocks:     blocks,
		FreePerLUN: append([]int(nil), a.freePerLUN...),
		Counters:   a.counters,
		Channels:   make([]ResourceState, len(a.channels)),
		LUNs:       make([]ResourceState, len(a.luns)),
	}
	for i := range a.channels {
		st.Channels[i] = ResourceState{Intervals: copyIntervals(a.channels[i].intervals)}
	}
	for i := range a.luns {
		st.LUNs[i] = ResourceState{Intervals: copyIntervals(a.luns[i].intervals)}
	}
	return st
}

func copyIntervals(ivs []interval) []Interval {
	out := make([]Interval, len(ivs))
	for i, iv := range ivs {
		out[i] = Interval{Start: iv.start, End: iv.end}
	}
	return out
}

// RestoreArray builds an array that continues from a snapshot, which must
// match the geometry. st.Pages is adopted, not copied — shared with every
// array restored from st until this one first writes a page — so the caller
// must not modify it afterwards. Everything else is small and copied.
func RestoreArray(geo Geometry, timing Timing, feat Features, st ArrayState) (*Array, error) {
	switch {
	case len(st.Pages) != geo.Pages():
		return nil, fmt.Errorf("%w: snapshot has %d pages, array has %d", ErrStateMismatch, len(st.Pages), geo.Pages())
	case len(st.Blocks) != geo.Blocks():
		return nil, fmt.Errorf("%w: snapshot has %d blocks, array has %d", ErrStateMismatch, len(st.Blocks), geo.Blocks())
	case len(st.FreePerLUN) != geo.LUNs():
		return nil, fmt.Errorf("%w: snapshot has %d LUN free counts, array has %d", ErrStateMismatch, len(st.FreePerLUN), geo.LUNs())
	case len(st.Channels) != geo.Channels:
		return nil, fmt.Errorf("%w: snapshot has %d channels, array has %d", ErrStateMismatch, len(st.Channels), geo.Channels)
	case len(st.LUNs) != geo.LUNs():
		return nil, fmt.Errorf("%w: snapshot has %d LUNs, array has %d", ErrStateMismatch, len(st.LUNs), geo.LUNs())
	}
	a := newArray(geo, timing, feat)
	a.pages, a.pagesShared = st.Pages, true
	for i, b := range st.Blocks {
		a.eraseCount[i] = int32(b.EraseCount)
		a.lastErase[i] = b.LastErase
		a.validPages[i] = int32(b.ValidPages)
		a.writePtr[i] = int32(b.WritePtr)
		a.bad[i] = b.Bad
	}
	a.fillBuckets()
	copy(a.freePerLUN, st.FreePerLUN)
	a.counters = st.Counters
	for i := range a.channels {
		a.channels[i].intervals = restoreIntervals(st.Channels[i].Intervals)
	}
	for i := range a.luns {
		a.luns[i].intervals = restoreIntervals(st.LUNs[i].Intervals)
	}
	return a, nil
}

func restoreIntervals(ivs []Interval) []interval {
	out := make([]interval, len(ivs))
	for i, iv := range ivs {
		out[i] = interval{start: iv.Start, end: iv.End}
	}
	return out
}

// Errors returned by Array state transitions. All are programming errors in
// the FTL or GC layer, not recoverable runtime conditions, but they are
// returned (not panicked) so tests can assert on them.
// Errors returned by configuration validation and snapshot restore.
var (
	// ErrConfig wraps every Geometry/Timing validation failure.
	ErrConfig = errors.New("flash: invalid configuration")
	// ErrStateMismatch wraps every shape mismatch between a snapshot and
	// the array it is restored into.
	ErrStateMismatch = errors.New("flash: snapshot does not match array shape")
)

var (
	ErrOutOfBounds   = errors.New("flash: address out of bounds")
	ErrNotValid      = errors.New("flash: page does not hold valid data")
	ErrNotFree       = errors.New("flash: page is not free")
	ErrProgramOrder  = errors.New("flash: pages must be programmed sequentially within a block")
	ErrBadBlock      = errors.New("flash: block is marked bad")
	ErrCopybackOff   = errors.New("flash: copyback not supported by this chip")
	ErrCrossLUN      = errors.New("flash: copyback source and destination must share a LUN")
	ErrAlreadyStale  = errors.New("flash: page already invalid")
	ErrEraseLivePage = errors.New("flash: erasing block that still holds valid pages")
)
