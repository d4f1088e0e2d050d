package sched

import (
	"math/rand"
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// modelGate is a Gate over explicit shared predicates, honoring the contract
// the controller provides: every member of a wait-class waits on the same
// condition (one member's failure proves the whole class undispatchable), a
// class's token moves whenever its condition may have cleared, and its
// stable token moves whenever a member's wait may have changed identity.
// Evaluate agrees exactly with canRun over the same state, so the reference
// and PopClassed must select identical requests. Saturated honors its own
// contract by brute force: it may only say yes when every queued request
// would be refused, and (like the controller) it does not always notice.
type modelGate struct {
	class   map[uint64]int            // request ID → wait-class; absent = unclassed
	solo    map[uint64]bool           // unclassed requests currently blocked
	live    map[uint64]*iface.Request // everything queued
	notices bool                      // whether Saturated reports a saturated queue
	satHits int                       // times Saturated said yes
	blocked [8]bool                   // the per-class shared condition
	tokens  [8]uint64
	stable  [8]uint64
}

func newModelGate() *modelGate {
	return &modelGate{class: make(map[uint64]int), solo: make(map[uint64]bool), live: make(map[uint64]*iface.Request)}
}

func (m *modelGate) Saturated() bool {
	if !m.notices {
		return false
	}
	for _, r := range m.live {
		if m.canRun(r) {
			return false
		}
	}
	m.satHits++
	return true
}

func (m *modelGate) canRun(r *iface.Request) bool {
	if c, ok := m.class[r.ID]; ok {
		return !m.blocked[c]
	}
	return !m.solo[r.ID]
}

func (m *modelGate) Evaluate(r *iface.Request) (bool, int) {
	if c, ok := m.class[r.ID]; ok {
		if m.blocked[c] {
			return false, c
		}
		return true, -1
	}
	if m.solo[r.ID] {
		return false, -1 // unclassed failure: stays in the scan path
	}
	return true, -1
}

func (m *modelGate) ClassToken(c int) uint64  { return m.tokens[c] }
func (m *modelGate) ClassStable(c int) uint64 { return m.stable[c] }

// toggle flips a class's shared condition, bumping its wake token — the way
// a LUN going idle (or busy) moves the controller's epoch.
func (m *modelGate) toggle(c int) {
	m.blocked[c] = !m.blocked[c]
	m.tokens[c]++
}

// moveOne reassigns one member of class c to class nc (or to unclassed when
// nc < 0) and bumps c's stable token: that member's wait changed identity,
// the way a read retargets when its page is remapped.
func (m *modelGate) moveOne(c, nc int, soloBlocked bool) {
	for id, cl := range m.class {
		if cl != c {
			continue
		}
		if nc < 0 {
			delete(m.class, id)
			if soloBlocked {
				m.solo[id] = true
			}
		} else {
			m.class[id] = nc
		}
		m.stable[c]++
		return
	}
}

// forget drops a popped request from the model.
func (m *modelGate) forget(id uint64) {
	delete(m.class, id)
	delete(m.solo, id)
	delete(m.live, id)
}

// reference is the obviously-correct statement of a policy's order, kept
// apart from everything the real policies use to be fast: one flat slice in
// arrival order, a full linear scan per pop, no head index, no class lists, no
// parking, and it never asks whether the gate is saturated.
type reference struct {
	items []*iface.Request
	pick  picker
}

// picker returns the index of the request to dispatch among those ok accepts,
// or -1.
type picker func(items []*iface.Request, now sim.Time, ok func(*iface.Request) bool) int

func (m *reference) push(r *iface.Request) { m.items = append(m.items, r) }

func (m *reference) pop(now sim.Time, ok func(*iface.Request) bool) *iface.Request {
	i := m.pick(m.items, now, ok)
	if i < 0 {
		return nil
	}
	r := m.items[i]
	m.items = append(m.items[:i:i], m.items[i+1:]...)
	return r
}

func pickFIFO(items []*iface.Request, _ sim.Time, ok func(*iface.Request) bool) int {
	for i, r := range items {
		if ok(r) {
			return i
		}
	}
	return -1
}

// pickPriority: the best score wins, ties in arrival order.
func pickPriority(p *Priority) picker {
	return func(items []*iface.Request, _ sim.Time, ok func(*iface.Request) bool) int {
		best := -1
		for i, r := range items {
			if ok(r) && (best < 0 || p.score(r) > p.score(items[best])) {
				best = i
			}
		}
		return best
	}
}

// pickDeadline: overdue first, earliest deadline first, ties in arrival order;
// after cap consecutive overdue dispatches one fresh request goes first if any
// can; fresh requests in the fallback's order.
func pickDeadline(d *Deadline, fresh picker) picker {
	run := 0
	overdue := func(items []*iface.Request, now sim.Time, ok func(*iface.Request) bool) int {
		best := -1
		for i, r := range items {
			if dl := d.deadlineFor(r); dl <= now && ok(r) && (best < 0 || dl < d.deadlineFor(items[best])) {
				best = i
			}
		}
		return best
	}
	return func(items []*iface.Request, now sim.Time, ok func(*iface.Request) bool) int {
		capped := d.MaxConsecutiveOverdue > 0 && run >= d.MaxConsecutiveOverdue
		if !capped {
			if i := overdue(items, now, ok); i >= 0 {
				run++
				return i
			}
		}
		run = 0
		notDue := func(r *iface.Request) bool { return d.deadlineFor(r) > now && ok(r) }
		if i := fresh(items, now, notDue); i >= 0 {
			return i
		}
		if capped {
			if i := overdue(items, now, ok); i >= 0 {
				run = 1
				return i
			}
		}
		return -1
	}
}

// pickFair: weighted round-robin over sources from the current turn; within a
// source, arrival order; a source with credits left keeps the turn.
func pickFair(weights [iface.NumSources]int) picker {
	var credits [iface.NumSources]int
	turn := 0
	return func(items []*iface.Request, _ sim.Time, ok func(*iface.Request) bool) int {
		for tried := 0; tried < iface.NumSources; tried++ {
			src := (turn + tried) % iface.NumSources
			for i, r := range items {
				if int(r.Source) != src || !ok(r) {
					continue
				}
				if tried != 0 {
					turn, credits[src] = src, 0
				}
				credits[src]++
				if w := weights[src]; credits[src] >= max(w, 1) {
					credits[src] = 0
					turn = (src + 1) % iface.NumSources
				}
				return i
			}
		}
		return -1
	}
}

type referencePair struct {
	ref    *reference
	policy Policy
}

func referencePairs() []referencePair {
	prio := &Priority{Prefer: PreferReads, Internal: InternalLast}
	dl0 := &Deadline{ReadDeadline: 50, WriteDeadline: 200}
	dl2 := &Deadline{ReadDeadline: 50, WriteDeadline: 200, MaxConsecutiveOverdue: 2}
	dlPrio := &Deadline{ReadDeadline: 50, InternalDeadline: 400, Fallback: &Priority{Prefer: PreferReads}}
	fair := &Fair{Weights: [iface.NumSources]int{2, 1, 1, 1}}
	return []referencePair{
		{&reference{pick: pickFIFO}, &FIFO{}},
		{&reference{pick: pickPriority(prio)}, prio},
		{&reference{pick: pickDeadline(dl0, pickFIFO)}, dl0},
		{&reference{pick: pickDeadline(dl2, pickFIFO)}, dl2},
		{&reference{pick: pickDeadline(dlPrio, pickPriority(&Priority{Prefer: PreferReads}))}, dlPrio},
		{&reference{pick: pickFair(fair.Weights)}, fair},
	}
}

// TestClassedMatchesPlain drives the flat-slice reference and the real policy
// (PopClassed under modelGate: wait-classes, tokens, retargets, a saturation
// proof that comes and goes) through the same random schedule of pushes,
// condition flips, wait retargets and pops, and requires identical selections
// throughout. This is the determinism contract the controller relies on:
// parking by class is cost-only. Even seeds pop more than they push, so the
// queue keeps draining to its blocked residue and the saturation
// short-circuit answers many of the nil pops.
func TestClassedMatchesPlain(t *testing.T) {
	for _, pair := range referencePairs() {
		plain, classed := pair.ref, pair.policy
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			gate := newModelGate()
			now := sim.Time(0)
			nextID := uint64(1)
			queued := 0
			for step := 0; step < 3000; step++ {
				op := rng.Intn(12)
				if seed%2 == 0 && op < 5 && rng.Intn(2) == 0 {
					op = 11 // half the pushes become pops
				}
				switch {
				case op < 5: // push
					r := &iface.Request{ID: nextID, Submitted: now}
					nextID++
					if rng.Intn(2) == 0 {
						r.Type = iface.Read
					} else {
						r.Type = iface.Write
					}
					if rng.Intn(4) == 0 {
						r.Source = iface.SourceGC
					}
					switch rng.Intn(4) {
					case 0: // unclassed, runnable
					case 1: // unclassed, individually blocked
						gate.solo[r.ID] = true
					default: // classed: waits on a shared condition
						gate.class[r.ID] = rng.Intn(len(gate.tokens))
					}
					gate.live[r.ID] = r
					plain.push(r)
					classed.Push(r)
					queued++
				case op < 6: // a shared condition flips
					gate.toggle(rng.Intn(len(gate.tokens)))
				case op < 7: // one member's wait changes identity
					c := rng.Intn(len(gate.tokens))
					nc := rng.Intn(len(gate.tokens)+1) - 1
					gate.moveOne(c, nc, rng.Intn(2) == 0)
				case op < 8: // an individual block clears or forms
					for id := range gate.solo {
						delete(gate.solo, id)
						break
					}
					gate.notices = !gate.notices // and saturation goes (un)noticed
				case op < 9: // time passes: deadlines become overdue
					now = now.Add(sim.Duration(rng.Intn(100)))
				default: // pop both, compare
					a := plain.pop(now, gate.canRun)
					b := classed.PopClassed(now, gate)
					switch {
					case a == nil && b == nil:
					case a == nil || b == nil:
						t.Fatalf("%s seed %d step %d: reference=%v policy=%v", classed.Name(), seed, step, a, b)
					case a.ID != b.ID:
						t.Fatalf("%s seed %d step %d: reference popped %d, policy popped %d", classed.Name(), seed, step, a.ID, b.ID)
					default:
						gate.forget(a.ID)
						queued--
					}
				}
				if lp, lc := len(plain.items), classed.Len(); lp != lc || lp != queued {
					t.Fatalf("%s seed %d step %d: Len reference=%d policy=%d want %d", classed.Name(), seed, step, lp, lc, queued)
				}
			}
			// Drain with every condition clear: both must empty identically.
			for c := range gate.tokens {
				if gate.blocked[c] {
					gate.toggle(c)
				}
			}
			gate.solo = map[uint64]bool{}
			if seed%2 == 0 && gate.satHits == 0 {
				t.Fatalf("%s seed %d: the saturation short-circuit never fired", classed.Name(), seed)
			}
			for {
				a := plain.pop(now, gate.canRun)
				b := classed.PopClassed(now, gate)
				if a == nil && b == nil {
					break
				}
				if a == nil || b == nil || a.ID != b.ID {
					t.Fatalf("%s seed %d drain: reference=%v policy=%v", classed.Name(), seed, a, b)
				}
			}
		}
	}
}

// TestClassListReclaimsDeadPrefix keeps one wait-class occupied while its
// head is popped over and over — a stream class under sustained saturation —
// and requires the dead prefix to be reclaimed rather than grown forever,
// with arrival order intact.
func TestClassListReclaimsDeadPrefix(t *testing.T) {
	f := &FIFO{}
	gate := newModelGate()
	gate.toggle(0) // class 0 blocked
	next, want := uint64(1), uint64(1)
	for step := 0; step < 2000; step++ {
		for i := 0; i < 2; i++ {
			r := &iface.Request{ID: next}
			gate.class[r.ID] = 0
			f.Push(r)
			next++
		}
		if r := f.PopClassed(0, gate); r != nil { // parks the arrivals
			t.Fatalf("step %d: popped %d from a blocked class", step, r.ID)
		}
		gate.toggle(0)
		r := f.PopClassed(0, gate)
		if r == nil || r.ID != want {
			t.Fatalf("step %d: popped %v, want %d", step, r, want)
		}
		gate.forget(r.ID)
		want++
		gate.toggle(0)
		if cl := &f.q.classes[0]; cl.head > 64 && cl.head*2 >= len(cl.ents) {
			t.Fatalf("step %d: dead prefix %d of %d entries not reclaimed", step, cl.head, len(cl.ents))
		}
	}
	gate.toggle(0)
	for ; want < next; want++ {
		if r := f.PopClassed(0, gate); r == nil || r.ID != want {
			t.Fatalf("drain: popped %v, want %d", r, want)
		}
	}
}
