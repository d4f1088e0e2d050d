package flash

import "eagletree/internal/sim"

// resource tracks the busy intervals of one exclusive hardware resource
// (a channel or a LUN). Reservations are half-open intervals [start, end).
//
// Two reservation disciplines are supported:
//
//   - reserveTail: the operation queues behind everything already booked.
//     This models a channel without interleaving, which is held for whole
//     operations, and LUNs, which execute one operation at a time.
//   - reserveEarliest: the operation slots into the earliest gap large
//     enough, at or after the requested time. This models an interleaved
//     channel, where command and data phases of different operations share
//     the bus between each other's chip-internal phases.
type resource struct {
	intervals []interval // sorted by start, non-overlapping
}

type interval struct {
	start, end sim.Time
}

// freeAt returns the end of the last reservation, i.e. the first instant with
// nothing booked after it.
//
//eagletree:hotpath
func (r *resource) freeAt() sim.Time {
	if len(r.intervals) == 0 {
		return 0
	}
	return r.intervals[len(r.intervals)-1].end
}

// reserveTail books [max(at, tail), +d) behind all existing reservations and
// returns the start time.
//
//eagletree:hotpath
func (r *resource) reserveTail(at sim.Time, d sim.Duration) sim.Time {
	start := at
	if tail := r.freeAt(); tail > start {
		start = tail
	}
	r.intervals = append(r.intervals, interval{start, start.Add(d)})
	return start
}

// firstEndingAfter returns the index of the first reservation that ends after
// t, or len(intervals). Intervals are sorted and disjoint, so their ends are
// sorted too, and one ending at or before t can neither cover t nor bound a
// gap usable from t: everything before the index is history.
//
//eagletree:hotpath
func (r *resource) firstEndingAfter(t sim.Time) int {
	lo, hi := 0, len(r.intervals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.intervals[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// reserveEarliest books d time units in the earliest gap beginning at or
// after at, and returns the start time.
//
//eagletree:hotpath
func (r *resource) reserveEarliest(at sim.Time, d sim.Duration) sim.Time {
	// Find the first gap of at least d starting at or after at. Only the
	// reservations that end after at can bound one, so the candidate gap
	// starts at at and moves to each such reservation's end in turn.
	gapStart := at
	for i := r.firstEndingAfter(at); i < len(r.intervals); i++ {
		iv := r.intervals[i]
		if iv.start >= gapStart && iv.start.Sub(gapStart) >= d {
			r.insert(i, interval{gapStart, gapStart.Add(d)})
			return gapStart
		}
		gapStart = iv.end
	}
	r.intervals = append(r.intervals, interval{gapStart, gapStart.Add(d)})
	return gapStart
}

//eagletree:hotpath
func (r *resource) insert(i int, iv interval) {
	r.intervals = append(r.intervals, interval{})
	copy(r.intervals[i+1:], r.intervals[i:])
	r.intervals[i] = iv
}

// prune discards reservations that ended at or before now. The controller
// calls it periodically so interval lists stay short.
func (r *resource) prune(now sim.Time) {
	r.intervals = r.intervals[:copy(r.intervals, r.intervals[r.firstEndingAfter(now):])]
}

// busyAt reports whether the resource has a reservation covering t.
//
//eagletree:hotpath
func (r *resource) busyAt(t sim.Time) bool {
	i := r.firstEndingAfter(t)
	return i < len(r.intervals) && r.intervals[i].start <= t
}
