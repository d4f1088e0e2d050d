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
