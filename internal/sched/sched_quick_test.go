package sched

import (
	"testing"
	"testing/quick"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// policies under test, freshly constructed per property run.
func allPolicies() []Policy {
	return []Policy{
		&FIFO{},
		&Priority{Prefer: PreferReads},
		&Priority{Prefer: PreferWrites, Internal: InternalLast, UseTags: true},
		&Deadline{ReadDeadline: sim.Millisecond, WriteDeadline: 10 * sim.Millisecond},
		&Deadline{ReadDeadline: sim.Millisecond, Fallback: &Priority{Prefer: PreferReads}},
		&Deadline{ReadDeadline: sim.Millisecond, WriteDeadline: 10 * sim.Millisecond, MaxConsecutiveOverdue: 2},
		&Fair{},
	}
}

type reqSpec struct {
	Read     bool
	Internal bool
	Prio     bool
	Sub      uint16
}

func buildReq(id int, s reqSpec) *iface.Request {
	r := &iface.Request{ID: uint64(id + 1), Submitted: sim.Time(s.Sub)}
	if s.Read {
		r.Type = iface.Read
	} else {
		r.Type = iface.Write
	}
	if s.Internal {
		r.Source = iface.SourceGC
	}
	if s.Prio {
		r.Tags.Priority = iface.PriorityHigh
	}
	return r
}

// TestPoliciesConserveRequests: every pushed request is popped exactly once
// (when canRun always approves), regardless of policy and request mix.
func TestPoliciesConserveRequests(t *testing.T) {
	f := func(specs []reqSpec) bool {
		for _, p := range allPolicies() {
			seen := make(map[uint64]int)
			for i, s := range specs {
				p.Push(buildReq(i, s))
			}
			if p.Len() != len(specs) {
				t.Logf("%s: Len %d after %d pushes", p.Name(), p.Len(), len(specs))
				return false
			}
			for {
				r := pop(p, sim.Time(1<<20), func(*iface.Request) bool { return true })
				if r == nil {
					break
				}
				seen[r.ID]++
			}
			if len(seen) != len(specs) {
				t.Logf("%s: popped %d of %d", p.Name(), len(seen), len(specs))
				return false
			}
			for id, n := range seen {
				if n != 1 {
					t.Logf("%s: request %d popped %d times", p.Name(), id, n)
					return false
				}
			}
			if p.Len() != 0 {
				t.Logf("%s: Len %d after draining", p.Name(), p.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPoliciesRespectCanRun: a request rejected by canRun is never popped,
// and Pop returns nil exactly when nothing runnable remains.
func TestPoliciesRespectCanRun(t *testing.T) {
	f := func(specs []reqSpec, mask uint64) bool {
		for _, p := range allPolicies() {
			blocked := make(map[uint64]bool)
			for i, s := range specs {
				r := buildReq(i, s)
				if mask&(1<<(uint(i)%64)) != 0 {
					blocked[r.ID] = true
				}
				p.Push(r)
			}
			canRun := func(r *iface.Request) bool { return !blocked[r.ID] }
			popped := 0
			for {
				r := pop(p, sim.Time(1<<20), canRun)
				if r == nil {
					break
				}
				if blocked[r.ID] {
					t.Logf("%s popped a blocked request", p.Name())
					return false
				}
				popped++
			}
			if popped != len(specs)-len(blocked) {
				t.Logf("%s popped %d, want %d", p.Name(), popped, len(specs)-len(blocked))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineOverduePopOrder: once requests are overdue, Pop serves the
// earliest deadline among them.
func TestDeadlineOverduePopOrder(t *testing.T) {
	f := func(subs []uint8) bool {
		if len(subs) == 0 {
			return true
		}
		d := &Deadline{ReadDeadline: sim.Microsecond}
		for i, s := range subs {
			d.Push(&iface.Request{ID: uint64(i + 1), Type: iface.Read, Submitted: sim.Time(s)})
		}
		// At a time far past every deadline, pops must come out in
		// submission order (deadline = submitted + const).
		now := sim.Time(1 << 30)
		var last sim.Time = -1
		for {
			r := pop(d, now, func(*iface.Request) bool { return true })
			if r == nil {
				break
			}
			if r.Submitted < last {
				return false
			}
			last = r.Submitted
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
