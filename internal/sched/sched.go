// Package sched is the SSD controller's IO scheduling framework — the
// central module of the simulator, as the paper puts it. Given the state of
// the flash array and a queue of pending IOs from various sources
// (application, garbage collection, wear leveling, mapping) of various types
// (read, write, erase, copyback) that have waited different lengths of time,
// a Policy decides which IO executes next, and an Allocator decides where
// (on which LUN) a write lands.
//
// Policies are deliberately small and composable so that the design space —
// priority schemes by source, type and tag; deadlines with overdue handling;
// fairness across sources — can be explored by swapping one value.
//
// There is one pop: the controller calls Policy.PopClassed with itself as the
// Gate, and Gate.Evaluate is the single statement of "can this request start
// now". A policy only imposes its order among the requests Evaluate accepts.
//
//eagletree:typederrors
package sched

import (
	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// Policy orders the controller's pending IO queue. Push enqueues; PopClassed
// removes and returns the next request to dispatch among those the Gate's
// Evaluate accepts, or nil if none is dispatchable.
//
// The contract a policy — in this package or written against the facade —
// must meet: return only a request g.Evaluate accepted during this call,
// chosen by the policy's own order among all that it would accept. Evaluate
// has no effect a policy must honour by dispatching; a policy may evaluate any
// number of candidates and pop one. The wait-class Evaluate names with a
// refusal is an offer, not a demand: parking by class is cost-only, because a
// sleeping class's members are provably undispatchable while its token stands
// still, so a policy that ignores classes and asks again on every pop selects
// the same requests.
type Policy interface {
	Name() string
	Push(r *iface.Request)
	// PushBlocked enqueues a request that is known to be undispatchable
	// until Unblock is called (a dependency-chain successor, a deferred
	// write). It keeps its arrival position but is invisible to pops, so
	// long dependency chains cost nothing per dispatch tick.
	PushBlocked(r *iface.Request)
	// Unblock makes a previously PushBlocked request visible to pops again,
	// at its original arrival position. Unknown requests are ignored.
	Unblock(r *iface.Request)
	PopClassed(now sim.Time, g Gate) *iface.Request
	// WakeRequest moves one parked request back into the scan path when its
	// wait condition changed identity rather than cleared — a read whose
	// page was remapped waits on a different LUN now, which no class token
	// tracks. Policies that never park by class implement it as a no-op.
	WakeRequest(r *iface.Request, class int)
	Len() int
}

// ClassedPolicy is an alias of Policy for the callers that name it.
type ClassedPolicy = Policy

// Gate is the controller side of dispatch. Evaluate says whether a request
// can start now — it encapsulates the hardware and space constraints the
// policy cannot see: the target LUN of a read must be idle, a write needs
// some LUN with room, and translation dependencies must have drained. A yes
// is an answer, not a dispatch: Evaluate has no effect a policy must honour by
// dispatching; a policy may evaluate any number of candidates and pop one, and
// a request accepted and left queued is exactly as wakeable as before. When
// the request cannot run, Evaluate names the wait-class its failure belongs
// to — or -1 when the failure is not class-wide. Every member of a class
// waits on the same condition, so one member refused under the number of the
// class it is filed in proves the whole class undispatchable, and a sweep may
// leave the class at that first refusal. The class returned with a yes
// carries no meaning.
//
// ClassToken returns a monotonic token per class that changes whenever the
// class's blocking condition may have cleared. A class that slept at token
// T provably stays undispatchable while the token still reads T, so the
// policy skips the entire class with one comparison instead of one
// evaluation per member.
//
// ClassStable returns a token over class membership: while it stands still,
// every parked member still belongs to the class it parked under. When it
// moves (a write's stream assignment may have changed), the policy flushes
// the class back into the scan path for re-classification — examining only
// the head would miss members whose wait condition changed identity.
type Gate interface {
	Evaluate(r *iface.Request) (ok bool, class int)
	ClassToken(class int) uint64
	ClassStable(class int) uint64
}

// SaturationGate is a Gate that can prove in O(1) that nothing queued is
// dispatchable: every LUN is busy and no queued request can start without
// one. Saturated must imply that Evaluate would refuse every queued request,
// so a pop returns nil on it before any maintenance, merge or evaluation. It
// is an extension rather than a Gate method so gates without such a proof
// need not fake one.
type SaturationGate interface {
	Gate
	Saturated() bool
}

// saturated reports whether the gate proves the whole queue undispatchable.
//
//eagletree:hotpath
func saturated(g Gate) bool {
	s, ok := g.(SaturationGate)
	return ok && s.Saturated()
}

// gateFunc is a Gate over a bare predicate: it names no wait-class, so
// nothing parks and a pop under it is the linear scan in the policy's order.
type gateFunc func(*iface.Request) bool

func (f gateFunc) Evaluate(r *iface.Request) (bool, int) { return f(r), -1 }
func (gateFunc) ClassToken(int) uint64                   { return 0 }
func (gateFunc) ClassStable(int) uint64                  { return 0 }

// qent is one queued request with its arrival sequence number.
type qent struct {
	r   *iface.Request
	seq uint64
}

// queue is the shared backing store: arrival-ordered with stable removal.
// The head index makes removal at the front — the overwhelmingly common case
// for arrival-ordered dispatch — O(1) instead of a full memmove. Blocked
// requests are parked outside the scanned slice and re-enter at their
// arrival position (by sequence number) when released.
type queue struct {
	items  []qent
	head   int
	seq    uint64
	parked map[*iface.Request]uint64

	// Wait-class side lists: whole classes parked off the scan path.
	classes  []classList
	occupied []int // indices of classes with parked entries
	scratch  []int // per-occupied cursor state for mutation-free scans
}

func (q *queue) push(r *iface.Request) {
	q.items = append(q.items, qent{r, q.seq})
	q.seq++
}

// pushParked reserves an arrival position for a request that cannot run yet
// without exposing it to scans.
func (q *queue) pushParked(r *iface.Request) {
	if q.parked == nil {
		q.parked = make(map[*iface.Request]uint64)
	}
	q.parked[r] = q.seq
	q.seq++
}

// release re-inserts a parked request at its original arrival position.
// Unknown requests are ignored, so double-release is harmless.
func (q *queue) release(r *iface.Request) {
	seq, ok := q.parked[r]
	if !ok {
		return
	}
	delete(q.parked, r)
	q.insertBySeq(qent{r, seq})
}

// insertBySeq re-inserts an entry at its arrival position (by sequence
// number), keeping the scannable slice seq-ordered.
func (q *queue) insertBySeq(e qent) { q.items = insertSeq(q.items, q.head, e) }

// insertSeq inserts e into ents[head:], which is ordered by seq, at its
// arrival position.
//
//eagletree:hotpath
func insertSeq(ents []qent, head int, e qent) []qent {
	lo, hi := head, len(ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ents[mid].seq < e.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ents = append(ents, qent{})
	copy(ents[lo+1:], ents[lo:])
	ents[lo] = e
	return ents
}

// view returns the scannable requests in arrival order. The slice aliases
// the queue's storage and is only valid until the next mutation.
func (q *queue) view() []qent { return q.items[q.head:] }

// removeAt removes and returns the i-th scannable request (an index into
// view()).
func (q *queue) removeAt(i int) *iface.Request {
	i += q.head
	r := q.items[i].r
	if i == q.head {
		q.items[i] = qent{}
		q.head++
		if q.head == len(q.items) {
			q.items = q.items[:0]
			q.head = 0
		} else if q.head > 64 && q.head*2 >= len(q.items) {
			q.items, q.head = reclaim(q.items, q.head), 0
		}
		return r
	}
	copy(q.items[i:], q.items[i+1:])
	q.items[len(q.items)-1] = qent{}
	q.items = q.items[:len(q.items)-1]
	return r
}

// reclaim drops the dead prefix ents[:head]. Callers invoke it once the
// prefix dominates the backing array (head > 64 && head*2 >= len), so a list
// that never fully drains does not grow without bound.
//
//eagletree:hotpath
func reclaim(ents []qent, head int) []qent {
	n := copy(ents, ents[head:])
	clear(ents[n:])
	return ents[:n]
}

func (q *queue) len() int {
	n := len(q.items) - q.head + len(q.parked)
	for _, ci := range q.occupied {
		n += len(q.classes[ci].ents) - q.classes[ci].head
	}
	return n
}

// classList is one wait-class's parked entries, seq-ordered, with the token
// the class slept at. While asleep and the token unchanged, every member is
// provably undispatchable and the whole list costs one comparison per scan.
type classList struct {
	ents   []qent
	head   int
	token  uint64 // ClassToken the class slept at
	stable uint64 // ClassStable the members parked at
	asleep bool
}

// FIFO dispatches strictly in arrival order, skipping requests that cannot
// run yet. It is the baseline every other policy is measured against.
//
// Requests that fail with a wait-class park in per-class side lists instead
// of being rescanned: dispatch cost tracks the handful of runnable
// candidates, not the queue's length.
type FIFO struct {
	q queue
}

// Name implements Policy.
func (*FIFO) Name() string { return "fifo" }

// Push implements Policy.
func (f *FIFO) Push(r *iface.Request) { f.q.push(r) }

// PushBlocked implements Policy.
func (f *FIFO) PushBlocked(r *iface.Request) { f.q.pushParked(r) }

// Unblock implements Policy.
func (f *FIFO) Unblock(r *iface.Request) { f.q.release(r) }

// Len implements Policy.
func (f *FIFO) Len() int { return f.q.len() }

// PopClassed implements Policy: the lowest-seq dispatchable request, with
// whole wait-classes parked off the scan path — a sleeping class's members are
// all guaranteed undispatchable while its token stands still.
//
//eagletree:hotpath
func (f *FIFO) PopClassed(_ sim.Time, g Gate) *iface.Request {
	if saturated(g) {
		return nil
	}
	return f.q.popClassed(g)
}

// WakeRequest implements Policy: it pulls one parked request out of its class
// list and back into the scan path at its arrival position.
func (f *FIFO) WakeRequest(r *iface.Request, class int) { f.q.wakeRequest(r, class) }

// classMaintain re-arms the class lists against the gate's current tokens:
// classes whose membership token moved are flushed back into the scan path
// for re-classification, and sleeping classes whose wake token moved are
// woken. Every pop runs this once before scanning.
//
//eagletree:hotpath
func (q *queue) classMaintain(g Gate) {
	for oi := 0; oi < len(q.occupied); {
		ci := q.occupied[oi]
		cl := &q.classes[ci]
		if cl.stable != g.ClassStable(ci) {
			q.classFlush(ci)
			continue // occupied[oi] was swap-replaced by the flush
		}
		if cl.asleep && g.ClassToken(ci) != cl.token {
			cl.asleep = false
		}
		oi++
	}
}

// popClassed is arrival-ordered dispatch under a Gate. Sleeping classes
// whose token stands still cost one comparison; everything else is the
// usual lowest-seq merge over fresh arrivals and awake class heads.
//
//eagletree:hotpath
func (q *queue) popClassed(g Gate) *iface.Request {
	q.classMaintain(g)
	const noSeq = ^uint64(0)
	fi := 0
	for {
		fresh := q.view()
		bestSeq := noSeq
		bestClass := -1
		if fi < len(fresh) {
			bestSeq = fresh[fi].seq
		}
		for _, ci := range q.occupied {
			cl := &q.classes[ci]
			if cl.asleep {
				continue
			}
			if s := cl.ents[cl.head].seq; s < bestSeq {
				bestSeq, bestClass = s, ci
			}
		}
		if bestSeq == noSeq {
			return nil
		}
		if bestClass < 0 {
			e := fresh[fi]
			ok, class := g.Evaluate(e.r)
			if ok {
				return q.removeAt(fi)
			}
			if class >= 0 {
				q.removeAt(fi)
				q.classPark(class, e, g)
				continue // the next entry slid into slot fi
			}
			fi++ // unclassable failure: stays in the scan path
			continue
		}
		cl := &q.classes[bestClass]
		e := cl.ents[cl.head]
		ok, class := g.Evaluate(e.r)
		if ok {
			q.classRemoveAt(bestClass, cl.head)
			return e.r
		}
		if class == bestClass {
			// The class still waits on the same condition: back to sleep
			// until the token moves again. Its remaining members need no
			// evaluation — they fail for the same reason the head did.
			cl.asleep = true
			cl.token = g.ClassToken(bestClass)
			continue
		}
		// The head's wait moved elsewhere: re-park it under its current
		// class, or back into the scan path when the failure is not
		// class-wide.
		q.classRemoveAt(bestClass, cl.head)
		if class >= 0 {
			q.classPark(class, e, g)
		} else {
			q.insertBySeq(e)
		}
	}
}

// wakeRequest pulls one request out of its class list and back into the
// scan path at its arrival position.
func (q *queue) wakeRequest(r *iface.Request, class int) {
	if class < 0 || class >= len(q.classes) {
		return
	}
	cl := &q.classes[class]
	for i := cl.head; i < len(cl.ents); i++ {
		if cl.ents[i].r != r {
			continue
		}
		e := cl.ents[i]
		q.classRemoveAt(class, i)
		q.insertBySeq(e)
		return
	}
}

// scanLoc names the location of a scannable entry during a mutation-free
// scan: class == -1 means the fresh slice at view index idx; otherwise idx
// indexes the named class's ents.
type scanLoc struct{ class, idx int }

// classCursor iterates fresh arrivals and awake class members in ascending
// seq order without mutating the queue — the classed counterpart of ranging
// over view(). Sleeping classes are skipped: their members are provably
// undispatchable while their token stands still, so a scan that filters on
// dispatchability loses nothing by never visiting them — a class that
// queue.refuse puts to sleep mid-scan stops yielding there. Per-class cursor
// state lives in the queue's scratch slice, so iteration does not allocate
// once the scratch has grown.
type classCursor struct {
	q  *queue
	fi int
}

// scanStart resets the per-class cursors and returns a cursor positioned
// before the first scannable entry.
func (q *queue) scanStart() classCursor {
	q.scratch = q.scratch[:0]
	for range q.occupied {
		q.scratch = append(q.scratch, 0)
	}
	return classCursor{q: q}
}

// next returns the lowest-seq entry not yet yielded, with its location.
// Locations stay valid until the queue's next mutation.
//
//eagletree:hotpath
func (c *classCursor) next() (qent, scanLoc, bool) {
	q := c.q
	const noSeq = ^uint64(0)
	fresh := q.view()
	bestSeq := noSeq
	best := -1 // index into occupied; -1 means the fresh entry wins
	if c.fi < len(fresh) {
		bestSeq = fresh[c.fi].seq
	}
	for oi, ci := range q.occupied {
		cl := &q.classes[ci]
		if cl.asleep {
			continue
		}
		p := cl.head + q.scratch[oi]
		if p >= len(cl.ents) {
			continue
		}
		if s := cl.ents[p].seq; s < bestSeq {
			bestSeq, best = s, oi
		}
	}
	if bestSeq == noSeq {
		return qent{}, scanLoc{}, false
	}
	if best < 0 {
		e := fresh[c.fi]
		loc := scanLoc{-1, c.fi}
		c.fi++
		return e, loc, true
	}
	ci := q.occupied[best]
	cl := &q.classes[ci]
	p := cl.head + q.scratch[best]
	q.scratch[best]++
	return cl.ents[p], scanLoc{ci, p}, true
}

// refuse takes the gate's refusal of the entry a classCursor yielded at loc.
// A member refused under the number of the class it is filed in proves the
// whole class undispatchable: the class goes back to sleep at once, so the
// sweep — and every later sweep of this pop — asks about none of the rest.
// Any other class-wide refusal is logged for parking once the sweep ends;
// moving the entry now would invalidate the cursor's locations.
//
//eagletree:hotpath
func (q *queue) refuse(p *parkLog, g Gate, r *iface.Request, loc scanLoc, class int) {
	switch {
	case class < 0:
	case class == loc.class:
		q.classSleep(class, g)
	default:
		p.record(r, class)
	}
}

// classSleep puts a class to sleep at the gate's current tokens: a member
// just proved the class-wide condition still holds.
//
//eagletree:hotpath
func (q *queue) classSleep(ci int, g Gate) {
	cl := &q.classes[ci]
	cl.asleep = true
	cl.token = g.ClassToken(ci)
	cl.stable = g.ClassStable(ci)
}

// removeLoc removes the entry at a location produced by a classCursor (with
// no intervening queue mutations) and returns its request.
func (q *queue) removeLoc(loc scanLoc) *iface.Request {
	if loc.class < 0 {
		return q.removeAt(loc.idx)
	}
	r := q.classes[loc.class].ents[loc.idx].r
	q.classRemoveAt(loc.class, loc.idx)
	return r
}

// locate finds a scannable request by pointer, searching the fresh slice then
// the occupied class lists. It reports false when the request is not
// scannable (parked via PushBlocked, or already removed).
//
//eagletree:hotpath
func (q *queue) locate(r *iface.Request) (scanLoc, bool) {
	for i, e := range q.view() {
		if e.r == r {
			return scanLoc{-1, i}, true
		}
	}
	for _, ci := range q.occupied {
		cl := &q.classes[ci]
		for i := cl.head; i < len(cl.ents); i++ {
			if cl.ents[i].r == r {
				return scanLoc{ci, i}, true
			}
		}
	}
	return scanLoc{}, false
}

// parkRequest locates a scannable request by pointer and parks it under the
// given wait-class. Scans that discover class-wide failures away from a
// class head (Deadline's overdue sweep, Fair's per-source rounds) collect
// them and park here after the scan, so later pops skip the whole class with
// one token comparison. A request already filed under the right class only
// puts that class to sleep: the member just proved the class-wide condition
// still holds.
//
//eagletree:hotpath
func (q *queue) parkRequest(r *iface.Request, class int, g Gate) {
	loc, ok := q.locate(r)
	if !ok {
		return
	}
	if loc.class == class {
		q.classSleep(class, g)
		return
	}
	var e qent
	if loc.class < 0 {
		e = q.view()[loc.idx]
	} else {
		e = q.classes[loc.class].ents[loc.idx]
	}
	q.removeLoc(loc)
	q.classPark(class, e, g)
}

// parkLog collects (request, class) pairs discovered undispatchable during a
// mutation-free scan, for parking once the scan ends. The backing slices are
// reused across pops.
type parkLog struct {
	rs []*iface.Request
	cs []int
}

func (p *parkLog) record(r *iface.Request, class int) {
	p.rs = append(p.rs, r)
	p.cs = append(p.cs, class)
}

// apply parks every recorded request and resets the log.
//
//eagletree:hotpath
func (p *parkLog) apply(q *queue, g Gate) {
	for i, r := range p.rs {
		q.parkRequest(r, p.cs[i], g)
		p.rs[i] = nil
	}
	p.rs, p.cs = p.rs[:0], p.cs[:0]
}

// classPark files an entry under a wait-class and puts the class to sleep
// at the current token: the entry just evaluated undispatchable, and its
// failure condition is shared by every member.
//
//eagletree:hotpath
func (q *queue) classPark(ci int, e qent, g Gate) {
	for ci >= len(q.classes) {
		q.classes = append(q.classes, classList{})
	}
	cl := &q.classes[ci]
	if cl.head == len(cl.ents) {
		if cl.head > 0 {
			cl.ents = cl.ents[:0]
			cl.head = 0
		}
		q.occupied = append(q.occupied, ci)
	}
	if n := len(cl.ents); n == cl.head || cl.ents[n-1].seq < e.seq {
		cl.ents = append(cl.ents, e)
	} else {
		// A re-parked entry with an older arrival position (a retargeted
		// read): ordered insert keeps the list scannable in seq order.
		cl.ents = insertSeq(cl.ents, cl.head, e)
	}
	cl.asleep = true
	cl.token = g.ClassToken(ci)
	cl.stable = g.ClassStable(ci)
}

// classFlush returns every parked member of a class to the scan path at its
// arrival position: the class's membership token moved, so each entry must
// be re-evaluated and re-classified individually.
func (q *queue) classFlush(ci int) {
	cl := &q.classes[ci]
	for i := cl.head; i < len(cl.ents); i++ {
		q.insertBySeq(cl.ents[i])
		cl.ents[i] = qent{}
	}
	cl.ents = cl.ents[:0]
	cl.head = 0
	cl.asleep = false
	for oi, c := range q.occupied {
		if c == ci {
			q.occupied[oi] = q.occupied[len(q.occupied)-1]
			q.occupied = q.occupied[:len(q.occupied)-1]
			break
		}
	}
}

// classRemoveAt removes the entry at index i (into ents) from a class list,
// reclaiming the list when it empties.
//
//eagletree:hotpath
func (q *queue) classRemoveAt(ci, i int) {
	cl := &q.classes[ci]
	if i == cl.head {
		cl.ents[i] = qent{}
		cl.head++
		if cl.head > 64 && cl.head*2 >= len(cl.ents) {
			cl.ents, cl.head = reclaim(cl.ents, cl.head), 0
		}
	} else {
		copy(cl.ents[i:], cl.ents[i+1:])
		cl.ents[len(cl.ents)-1] = qent{}
		cl.ents = cl.ents[:len(cl.ents)-1]
	}
	if cl.head == len(cl.ents) {
		cl.ents = cl.ents[:0]
		cl.head = 0
		for oi, c := range q.occupied {
			if c == ci {
				q.occupied[oi] = q.occupied[len(q.occupied)-1]
				q.occupied = q.occupied[:len(q.occupied)-1]
				break
			}
		}
	}
}

// Preference biases a Priority policy between request types.
type Preference int

const (
	PreferNone Preference = iota
	PreferReads
	PreferWrites
)

func (p Preference) String() string {
	switch p {
	case PreferReads:
		return "reads-first"
	case PreferWrites:
		return "writes-first"
	default:
		return "no-preference"
	}
}

// InternalOrder places controller-internal IOs (GC, WL, mapping) relative to
// application IOs.
type InternalOrder int

const (
	// InternalEqual treats internal and application IOs alike.
	InternalEqual InternalOrder = iota
	// InternalLast lets application IOs overtake internal ones — GC runs in
	// the gaps (non-obtrusive, but risks falling behind under load).
	InternalLast
	// InternalFirst drains internal IOs eagerly — GC debt never builds up,
	// at the price of application latency spikes.
	InternalFirst
)

func (o InternalOrder) String() string {
	switch o {
	case InternalLast:
		return "internal-last"
	case InternalFirst:
		return "internal-first"
	default:
		return "internal-equal"
	}
}

// Priority dispatches the highest-scoring runnable request; ties break in
// arrival order. The score combines the open-interface priority tag, the
// read/write preference, and the internal-vs-application ordering.
//
// Internally the queue is bucketed by score (scores are fixed per request at
// push time, and only a handful of distinct values exist), kept in
// descending score order. A pop walks buckets from the top and returns the
// first runnable request — identical selection to scanning one arrival-
// ordered queue for the best score, but with an early exit instead of an
// O(queue) scan per dispatch.
type Priority struct {
	// Prefer biases between reads and writes.
	Prefer Preference
	// Internal orders controller-internal IOs against application IOs.
	Internal InternalOrder
	// UseTags honors the open-interface priority tag; block-device mode
	// configurations leave it false.
	UseTags bool

	buckets []prioBucket // descending score
	n       int
}

// prioBucket holds the arrival-ordered requests of one score value.
type prioBucket struct {
	score int
	q     queue
}

// Name implements Policy.
func (p *Priority) Name() string { return "priority/" + p.Prefer.String() + "/" + p.Internal.String() }

// bucketFor returns the queue holding the given score, creating it in
// descending score order if needed.
func (p *Priority) bucketFor(s int) *queue {
	i := 0
	for ; i < len(p.buckets); i++ {
		if p.buckets[i].score == s {
			return &p.buckets[i].q
		}
		if p.buckets[i].score < s {
			break
		}
	}
	p.buckets = append(p.buckets, prioBucket{})
	copy(p.buckets[i+1:], p.buckets[i:])
	p.buckets[i] = prioBucket{score: s}
	return &p.buckets[i].q
}

// Push implements Policy.
func (p *Priority) Push(r *iface.Request) {
	p.bucketFor(p.score(r)).push(r)
	p.n++
}

// PushBlocked implements Policy.
func (p *Priority) PushBlocked(r *iface.Request) {
	p.bucketFor(p.score(r)).pushParked(r)
	p.n++
}

// Unblock implements Policy. The score is a pure function of immutable
// request fields, so it finds the same bucket PushBlocked used.
func (p *Priority) Unblock(r *iface.Request) {
	p.bucketFor(p.score(r)).release(r)
}

// Len implements Policy.
func (p *Priority) Len() int { return p.n }

func (p *Priority) score(r *iface.Request) int {
	s := 0
	if p.UseTags {
		s += int(r.Tags.Priority) * 100 // tag dominates
	}
	switch p.Prefer {
	case PreferReads:
		if r.Type == iface.Read {
			s += 10
		}
	case PreferWrites:
		if r.Type == iface.Write {
			s += 10
		}
	}
	internal := r.Source != iface.SourceApp
	switch p.Internal {
	case InternalLast:
		if internal {
			s -= 1000
		}
	case InternalFirst:
		if internal {
			s += 1000
		}
	}
	return s
}

// PopClassed implements Policy: the highest-scoring bucket's earliest
// dispatchable request, with each bucket's wait-classes parked off its scan
// path.
//
//eagletree:hotpath
func (p *Priority) PopClassed(_ sim.Time, g Gate) *iface.Request {
	if saturated(g) {
		return nil
	}
	for b := range p.buckets {
		if r := p.buckets[b].q.popClassed(g); r != nil {
			p.n--
			return r
		}
	}
	return nil
}

// WakeRequest implements Policy. The score is a pure function of immutable
// request fields, so it finds the same bucket the request parked in.
func (p *Priority) WakeRequest(r *iface.Request, class int) {
	p.bucketFor(p.score(r)).wakeRequest(r, class)
}

// Deadline gives each request a deadline from its submission time, by type.
// Overdue requests are served first, earliest deadline first; when nothing
// is overdue it behaves like the fallback ordering of Priority (with its
// knobs), so deadlines act as a starvation guard rather than the primary
// order.
//
// MaxConsecutiveOverdue controls how overdue IOs are handled relative to
// other IOs (§2.2): 0 means overdue requests preempt everything until the
// backlog drains; k > 0 means after k consecutive overdue dispatches one
// non-overdue request is served, bounding how hard an overdue burst can
// freeze the rest of the queue.
type Deadline struct {
	ReadDeadline     sim.Duration
	WriteDeadline    sim.Duration
	InternalDeadline sim.Duration
	// Fallback orders the queue when nothing is overdue. Nil means FIFO.
	Fallback Policy
	// MaxConsecutiveOverdue bounds overdue preemption (0 = unbounded).
	MaxConsecutiveOverdue int

	q          queue
	overdueRun int
	parks      parkLog
}

// Name implements Policy.
func (d *Deadline) Name() string { return "deadline" }

// Push implements Policy. The fallback policy is only lent the queue during
// a pop; it never stores requests across calls.
func (d *Deadline) Push(r *iface.Request) { d.q.push(r) }

// PushBlocked implements Policy.
func (d *Deadline) PushBlocked(r *iface.Request) { d.q.pushParked(r) }

// Unblock implements Policy.
func (d *Deadline) Unblock(r *iface.Request) { d.q.release(r) }

// Len implements Policy.
func (d *Deadline) Len() int { return d.q.len() }

func (d *Deadline) deadlineFor(r *iface.Request) sim.Time {
	var dl sim.Duration
	switch {
	case r.Source != iface.SourceApp:
		dl = d.InternalDeadline
	case r.Type == iface.Read:
		dl = d.ReadDeadline
	default:
		dl = d.WriteDeadline
	}
	if dl <= 0 {
		return sim.Never
	}
	return r.Submitted.Add(dl)
}

// PopClassed implements Policy. Overdue requests go first, earliest deadline
// first — unless the overdue run just hit its cap, in which case one
// non-overdue request goes first; when the cap demanded a non-overdue request
// but none is runnable, the overdue backlog is served rather than idling the
// device. Whole wait-classes stay parked off the scans: deadlines only order
// requests that are dispatchable in the first place.
func (d *Deadline) PopClassed(now sim.Time, g Gate) *iface.Request {
	if saturated(g) {
		d.overdueRun = 0 // what every nil pop below leaves behind
		return nil
	}
	d.q.classMaintain(g)
	preempt := d.MaxConsecutiveOverdue <= 0 || d.overdueRun < d.MaxConsecutiveOverdue
	if preempt {
		if r := d.popOverdueClassed(now, g); r != nil {
			d.overdueRun++
			return r
		}
	}
	d.overdueRun = 0
	if r := d.popFreshClassed(now, g); r != nil {
		return r
	}
	if preempt {
		return nil // nothing runnable at all
	}
	if r := d.popOverdueClassed(now, g); r != nil {
		d.overdueRun = 1
		return r
	}
	return nil
}

// WakeRequest implements Policy.
func (d *Deadline) WakeRequest(r *iface.Request, class int) { d.q.wakeRequest(r, class) }

// popOverdueClassed is the overdue sweep: the earliest overdue deadline
// among dispatchable entries wins, ties in arrival order.
// Class-wide failures discovered along the way are parked once the sweep
// ends.
//
//eagletree:hotpath
func (d *Deadline) popOverdueClassed(now sim.Time, g Gate) *iface.Request {
	cur := d.q.scanStart()
	best := scanLoc{}
	bestDL := sim.Never
	found := false
	for {
		e, loc, more := cur.next()
		if !more {
			break
		}
		dl := d.deadlineFor(e.r)
		if dl > now {
			continue
		}
		ok, class := g.Evaluate(e.r)
		if !ok {
			d.q.refuse(&d.parks, g, e.r, loc, class)
			continue
		}
		if dl < bestDL {
			best, bestDL, found = loc, dl, true
		}
	}
	var r *iface.Request
	if found {
		r = d.q.removeLoc(best)
	}
	d.parks.apply(&d.q, g)
	return r
}

// popFreshClassed picks among not-yet-overdue requests: via the fallback
// ordering when there is one, in arrival order otherwise.
//
//eagletree:hotpath
func (d *Deadline) popFreshClassed(now sim.Time, g Gate) *iface.Request {
	if d.Fallback != nil {
		return d.popViaFallbackClassed(now, g)
	}
	cur := d.q.scanStart()
	for {
		e, loc, more := cur.next()
		if !more {
			break
		}
		if d.deadlineFor(e.r) <= now {
			continue
		}
		ok, class := g.Evaluate(e.r)
		if ok {
			r := d.q.removeLoc(loc)
			d.parks.apply(&d.q, g)
			return r
		}
		d.q.refuse(&d.parks, g, e.r, loc, class)
	}
	d.parks.apply(&d.q, g)
	return nil
}

// popViaFallbackClassed lends the fallback every scannable entry — fresh
// arrivals and awake class members in seq order — and lets it order them.
// Sleeping class members are withheld: the fallback could never pick them
// (Evaluate would refuse), so their absence cannot change which request it
// returns. The fallback pops under a gateFunc, so it parks nothing of its own;
// class-wide failures are recorded for this queue instead. Not a hotpath
// function: the lend's predicate is a closure over now and g.
func (d *Deadline) popViaFallbackClassed(now sim.Time, g Gate) *iface.Request {
	cur := d.q.scanStart()
	for {
		e, _, more := cur.next()
		if !more {
			break
		}
		d.Fallback.Push(e.r)
	}
	picked := d.Fallback.PopClassed(now, gateFunc(func(r *iface.Request) bool {
		if d.deadlineFor(r) <= now {
			return false
		}
		ok, class := g.Evaluate(r)
		if !ok && class >= 0 {
			d.parks.record(r, class)
		}
		return ok
	}))
	// Drain the fallback completely so the next call starts clean.
	for d.Fallback.Len() > 0 {
		if d.Fallback.PopClassed(now, gateFunc(func(*iface.Request) bool { return true })) == nil {
			break
		}
	}
	if picked != nil {
		if loc, ok := d.q.locate(picked); ok {
			d.q.removeLoc(loc)
		}
	}
	d.parks.apply(&d.q, g)
	return picked
}

// Fair serves sources in weighted round-robin order, preventing any single
// source (for example a write-heavy thread, or GC) from monopolizing the
// array. Weights index by iface.Source; zero weights default to 1.
type Fair struct {
	Weights [iface.NumSources]int

	q       queue
	credits [iface.NumSources]int
	turn    iface.Source
	parks   parkLog
}

// Name implements Policy.
func (f *Fair) Name() string { return "fair" }

// Push implements Policy.
func (f *Fair) Push(r *iface.Request) { f.q.push(r) }

// PushBlocked implements Policy.
func (f *Fair) PushBlocked(r *iface.Request) { f.q.pushParked(r) }

// Unblock implements Policy.
func (f *Fair) Unblock(r *iface.Request) { f.q.release(r) }

// Len implements Policy.
func (f *Fair) Len() int { return f.q.len() }

func (f *Fair) weight(s iface.Source) int {
	if w := f.Weights[s]; w > 0 {
		return w
	}
	return 1
}

// PopClassed implements Policy. Each source is tried starting from the
// current turn; within a source, arrival order; a source with remaining
// credits keeps the turn. Whole wait-classes stay parked off the per-source
// scans, and each entry is evaluated in at most one source round (the one
// matching its own source).
//
//eagletree:hotpath
func (f *Fair) PopClassed(_ sim.Time, g Gate) *iface.Request {
	if saturated(g) {
		return nil
	}
	f.q.classMaintain(g)
	for tried := 0; tried < int(iface.NumSources); tried++ {
		src := iface.Source((int(f.turn) + tried) % iface.NumSources)
		cur := f.q.scanStart()
		for {
			e, loc, more := cur.next()
			if !more {
				break
			}
			r := e.r
			if r.Source != src {
				continue
			}
			ok, class := g.Evaluate(r)
			if !ok {
				f.q.refuse(&f.parks, g, r, loc, class)
				continue
			}
			if tried != 0 {
				// Turn moved on; reset credits for the new holder.
				f.turn = src
				f.credits[src] = 0
			}
			f.credits[src]++
			if f.credits[src] >= f.weight(src) {
				f.credits[src] = 0
				f.turn = iface.Source((int(src) + 1) % iface.NumSources)
			}
			f.q.removeLoc(loc)
			f.parks.apply(&f.q, g)
			return r
		}
	}
	f.parks.apply(&f.q, g)
	return nil
}

// WakeRequest implements Policy.
func (f *Fair) WakeRequest(r *iface.Request, class int) { f.q.wakeRequest(r, class) }
