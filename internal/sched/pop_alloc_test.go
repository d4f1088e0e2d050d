package sched

import (
	"math/rand"
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// rotatingGate is a stub Gate over sixteen wait-classes standing for LUNs:
// the class of the request dispatched last is busy, and its token moves when
// the next dispatch frees it.
type rotatingGate struct {
	busy   int
	tokens [16]uint64
}

func rotatingClass(r *iface.Request) int { return int(r.LPN) & 15 }

func (g *rotatingGate) Evaluate(r *iface.Request) (bool, int) {
	if c := rotatingClass(r); c == g.busy {
		return false, c
	}
	return true, -1
}
func (g *rotatingGate) ClassToken(c int) uint64 { return g.tokens[c] }
func (*rotatingGate) ClassStable(int) uint64    { return 0 }

// dispatched frees the busy class and makes r's class the busy one.
func (g *rotatingGate) dispatched(r *iface.Request) {
	if g.busy >= 0 {
		g.tokens[g.busy]++
	}
	g.busy = -1
	if r != nil {
		g.busy = rotatingClass(r)
	}
}

// popHarness holds a policy at a steady depth: every step pops one request
// under the rotating gate and pushes it straight back as a new arrival.
type popHarness struct {
	p   Policy
	g   rotatingGate
	now sim.Time
}

// newPopHarness queues depth requests from every source, of both types and
// three priority tags, on random LUNs.
func newPopHarness(p Policy, depth int) *popHarness {
	h := &popHarness{p: p, g: rotatingGate{busy: -1}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < depth; i++ {
		r := &iface.Request{ID: uint64(i), Type: iface.Read, LPN: iface.LPN(rng.Intn(1 << 16)), Submitted: h.now}
		if rng.Intn(3) == 0 {
			r.Type = iface.Write
		}
		r.Source = iface.Source(rng.Intn(iface.NumSources))
		r.Tags.Priority = iface.Priority(rng.Intn(3) - 1)
		p.Push(r)
	}
	return h
}

func (h *popHarness) step() {
	h.now = h.now.Add(sim.Microsecond)
	r := h.p.PopClassed(h.now, &h.g)
	if r == nil { // only the busy class is queued: it frees up
		h.g.dispatched(nil)
		r = h.p.PopClassed(h.now, &h.g)
	}
	h.g.dispatched(r)
	r.Submitted = h.now
	h.p.Push(r)
}

// popPolicies are the policies the pop guards hold at depth: every one the
// controller runs, Deadline in its arrival-order (no-fallback) form.
func popPolicies() []struct {
	name string
	p    func() Policy
} {
	return []struct {
		name string
		p    func() Policy
	}{
		{"fifo", func() Policy { return &FIFO{} }},
		{"priority", func() Policy { return &Priority{Prefer: PreferReads, Internal: InternalLast, UseTags: true} }},
		{"deadline", func() Policy {
			return &Deadline{ReadDeadline: 100 * sim.Microsecond, WriteDeadline: sim.Millisecond, InternalDeadline: 5 * sim.Millisecond}
		}},
		{"fair", func() Policy { return &Fair{Weights: [iface.NumSources]int{2, 1, 1, 1}} }},
	}
}

// TestPopAllocs holds each policy at depth 256 and requires a steady-state
// push+pop to allocate nothing: once the queue, its per-source or per-score
// queues and its class lists have grown, a pop only moves entries.
func TestPopAllocs(t *testing.T) {
	const depth = 256
	for _, pc := range popPolicies() {
		t.Run(pc.name, func(t *testing.T) {
			h := newPopHarness(pc.p(), depth)
			for i := 0; i < 16*depth; i++ {
				h.step()
			}
			allocs := testing.AllocsPerRun(4, func() {
				for i := 0; i < depth; i++ {
					h.step()
				}
			})
			if allocs != 0 {
				t.Fatalf("%.0f allocations per %d steady-state push+pop pairs, want 0", allocs, depth)
			}
			if n := h.p.Len(); n != depth {
				t.Fatalf("Len = %d after the run, want %d", n, depth)
			}
		})
	}
}

// BenchmarkPopClassed is one steady-state push+pop per iteration at depth 256.
func BenchmarkPopClassed(b *testing.B) {
	for _, pc := range popPolicies() {
		b.Run(pc.name, func(b *testing.B) {
			h := newPopHarness(pc.p(), 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.step()
			}
		})
	}
}
