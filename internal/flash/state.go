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
// page's lifecycle state, every block's metadata columns, operation counters
// and the channel/LUN reservation lists. Together with the geometry, timing
// and feature configuration (which live in the owning Config, not here) it
// fully determines all future array behavior. Free-block counts are not
// part of it: they follow from the Bad and WritePtr columns.
type ArrayState struct {
	Pages    []PageState
	Blocks   BlockColumns
	Counters Counters
	Channels []ResourceState
	LUNs     []ResourceState
}

// State deep-copies the array's mutable state for a snapshot.
func (a *Array) State() ArrayState {
	st := ArrayState{
		Pages: append([]PageState(nil), a.pages...),
		Blocks: BlockColumns{
			EraseCount: append([]int32(nil), a.eraseCount...),
			LastErase:  append([]sim.Time(nil), a.lastErase...),
			ValidPages: append([]int32(nil), a.validPages...),
			WritePtr:   append([]int32(nil), a.writePtr...),
			Bad:        append([]bool(nil), a.bad...),
		},
		Counters: a.counters,
		Channels: make([]ResourceState, len(a.channels)),
		LUNs:     make([]ResourceState, len(a.luns)),
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
	case len(st.Blocks.EraseCount) != geo.Blocks(), len(st.Blocks.LastErase) != geo.Blocks(),
		len(st.Blocks.ValidPages) != geo.Blocks(), len(st.Blocks.WritePtr) != geo.Blocks(), len(st.Blocks.Bad) != geo.Blocks():
		return nil, fmt.Errorf("%w: snapshot block columns are not all %d long", ErrStateMismatch, geo.Blocks())
	case len(st.Channels) != geo.Channels:
		return nil, fmt.Errorf("%w: snapshot has %d channels, array has %d", ErrStateMismatch, len(st.Channels), geo.Channels)
	case len(st.LUNs) != geo.LUNs():
		return nil, fmt.Errorf("%w: snapshot has %d LUNs, array has %d", ErrStateMismatch, len(st.LUNs), geo.LUNs())
	}
	a := newArray(geo, timing, feat)
	a.pages, a.pagesShared = st.Pages, true
	copy(a.eraseCount, st.Blocks.EraseCount)
	copy(a.lastErase, st.Blocks.LastErase)
	copy(a.validPages, st.Blocks.ValidPages)
	copy(a.writePtr, st.Blocks.WritePtr)
	copy(a.bad, st.Blocks.Bad)
	a.fillBuckets()
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

// Errors returned by configuration validation and snapshot restore.
var (
	// ErrConfig wraps every Geometry/Timing validation failure.
	ErrConfig = errors.New("flash: invalid configuration")
	// ErrStateMismatch wraps every shape mismatch between a snapshot and
	// the array it is restored into.
	ErrStateMismatch = errors.New("flash: snapshot does not match array shape")
)

// Errors returned by Array state transitions. All are programming errors in
// the FTL or GC layer, not recoverable runtime conditions, but they are
// returned (not panicked) so tests can assert on them.
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
