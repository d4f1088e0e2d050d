package sched

import (
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

func always(*iface.Request) bool { return true }

func dlRead(id uint64, sub sim.Time) *iface.Request {
	return &iface.Request{ID: id, Type: iface.Read, Submitted: sub}
}

func dlWrite(id uint64, sub sim.Time) *iface.Request {
	return &iface.Request{ID: id, Type: iface.Write, Submitted: sub}
}

// With no cap, an overdue backlog is drained completely before any fresh
// request is served.
func TestDeadlineUnboundedPreemption(t *testing.T) {
	d := &Deadline{ReadDeadline: sim.Microsecond, WriteDeadline: sim.Second}
	for i := uint64(1); i <= 4; i++ {
		d.Push(dlRead(i, 0)) // overdue at now
	}
	d.Push(dlWrite(100, 0)) // fresh for a long time
	now := sim.Time(10 * sim.Microsecond)
	var order []uint64
	for {
		r := pop(d, now, always)
		if r == nil {
			break
		}
		order = append(order, r.ID)
	}
	want := []uint64{1, 2, 3, 4, 100}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// With a cap of 2, every third dispatch admits a fresh request even while
// overdue work remains.
func TestDeadlineOverdueCapAdmitsFresh(t *testing.T) {
	d := &Deadline{ReadDeadline: sim.Microsecond, WriteDeadline: sim.Second, MaxConsecutiveOverdue: 2}
	for i := uint64(1); i <= 4; i++ {
		d.Push(dlRead(i, 0))
	}
	d.Push(dlWrite(100, 0))
	d.Push(dlWrite(101, 0))
	now := sim.Time(10 * sim.Microsecond)
	var order []uint64
	for {
		r := pop(d, now, always)
		if r == nil {
			break
		}
		order = append(order, r.ID)
	}
	want := []uint64{1, 2, 100, 3, 4, 101}
	if len(order) != len(want) {
		t.Fatalf("popped %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// When the cap demands a fresh request but none is runnable, the device must
// not idle: overdue work continues.
func TestDeadlineCapDoesNotIdleDevice(t *testing.T) {
	d := &Deadline{ReadDeadline: sim.Microsecond, MaxConsecutiveOverdue: 1}
	d.Push(dlRead(1, 0))
	d.Push(dlRead(2, 0))
	d.Push(dlRead(3, 0))
	now := sim.Time(10 * sim.Microsecond)
	popped := 0
	for {
		if pop(d, now, always) == nil {
			break
		}
		popped++
	}
	if popped != 3 {
		t.Fatalf("popped %d of 3 with an all-overdue queue", popped)
	}
}

// The overdue run counter resets once the backlog drains.
func TestDeadlineRunCounterResets(t *testing.T) {
	d := &Deadline{ReadDeadline: sim.Microsecond, WriteDeadline: sim.Second, MaxConsecutiveOverdue: 2}
	now := sim.Time(10 * sim.Microsecond)
	d.Push(dlRead(1, 0))
	d.Push(dlWrite(50, 0))
	if got := pop(d, now, always); got.ID != 1 {
		t.Fatalf("first pop %d", got.ID)
	}
	if got := pop(d, now, always); got.ID != 50 {
		t.Fatalf("second pop %d", got.ID)
	}
	// New overdue burst: the cap window must be fresh (2 overdue in a row).
	d.Push(dlRead(2, 0))
	d.Push(dlRead(3, 0))
	d.Push(dlWrite(51, 0))
	if got := pop(d, now, always); got.ID != 2 {
		t.Fatalf("third pop %d", got.ID)
	}
	if got := pop(d, now, always); got.ID != 3 {
		t.Fatalf("fourth pop %d, cap window did not reset", got.ID)
	}
	if got := pop(d, now, always); got.ID != 51 {
		t.Fatalf("fifth pop %d", got.ID)
	}
}

// lunGate refuses every request whose LPN names one of its eight wait-classes
// and accepts the rest: a device with eight busy LUNs.
type lunGate struct{ tokens [8]uint64 }

func (g *lunGate) Evaluate(r *iface.Request) (bool, int) {
	if int(r.LPN) < len(g.tokens) {
		return false, int(r.LPN)
	}
	return true, -1
}
func (g *lunGate) ClassToken(c int) uint64 { return g.tokens[c] }
func (*lunGate) ClassStable(int) uint64    { return 0 }

// BenchmarkDeadlinePopAwakeClasses pops one runnable request past 256 overdue
// ones filed under eight wait-classes that all just woke and are all still
// blocked — every LUN completed something and took the next operation. The pop
// must cost one refusal per class, not one evaluation per member.
func BenchmarkDeadlinePopAwakeClasses(b *testing.B) {
	d := &Deadline{ReadDeadline: 1, WriteDeadline: 1}
	g := &lunGate{}
	now := sim.Time(1000)
	for i := 0; i < 256; i++ {
		r := dlRead(uint64(i), 0)
		r.LPN = iface.LPN(i % len(g.tokens))
		d.Push(r)
	}
	if d.PopClassed(now, g) != nil || len(d.q.items) != d.q.head {
		b.Fatal("the blocked requests did not all park")
	}
	free := dlWrite(1<<20, 0)
	free.LPN = iface.LPN(len(g.tokens))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range g.tokens {
			g.tokens[c]++
		}
		d.Push(free)
		if d.PopClassed(now, g) != free {
			b.Fatal("the runnable request was not popped")
		}
	}
}
