package osched

import (
	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// Policy orders the OS pending pool. Unlike the SSD-side scheduler, the OS
// has no hardware constraints: Pop simply returns the next request to issue,
// or nil when the pool is empty.
type Policy interface {
	Name() string
	Push(r *iface.Request)
	Pop(now sim.Time) *iface.Request
	Len() int
}

// ring is a submission-ordered queue with a head index, the shape of
// sched's queue: popping advances the head instead of reslicing, so a drained
// queue keeps its backing array and the next push does not reallocate.
type ring struct {
	items []*iface.Request
	head  int
}

//eagletree:hotpath
func (q *ring) push(r *iface.Request) { q.items = append(q.items, r) }

func (q *ring) len() int { return len(q.items) - q.head }

// pop removes and returns the oldest request; the queue must not be empty.
//
//eagletree:hotpath
func (q *ring) pop() *iface.Request {
	r := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.items) {
		// Reclaim the dead prefix once it dominates the backing array.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return r
}

// FIFO issues requests strictly in submission order — the paper's default OS
// scheduling strategy.
type FIFO struct {
	q ring
}

// Name implements Policy.
func (*FIFO) Name() string { return "os-fifo" }

// Push implements Policy.
func (f *FIFO) Push(r *iface.Request) { f.q.push(r) }

// Len implements Policy.
func (f *FIFO) Len() int { return f.q.len() }

// Pop implements Policy.
func (f *FIFO) Pop(sim.Time) *iface.Request {
	if f.q.len() == 0 {
		return nil
	}
	return f.q.pop()
}

// Prio issues the highest-priority pending request first (by the
// open-interface priority tag), optionally preferring reads among equals.
// Ties break in submission order.
type Prio struct {
	// ReadsFirst breaks priority ties in favor of reads, the usual choice
	// when synchronous reads block application progress but writes do not.
	ReadsFirst bool

	items []*iface.Request
}

// Name implements Policy.
func (p *Prio) Name() string {
	if p.ReadsFirst {
		return "os-prio-reads"
	}
	return "os-prio"
}

// Push implements Policy.
func (p *Prio) Push(r *iface.Request) { p.items = append(p.items, r) }

// Len implements Policy.
func (p *Prio) Len() int { return len(p.items) }

func (p *Prio) score(r *iface.Request) int {
	s := int(r.Tags.Priority) * 10
	if p.ReadsFirst && r.Type == iface.Read {
		s++
	}
	return s
}

// Pop implements Policy.
func (p *Prio) Pop(sim.Time) *iface.Request {
	if len(p.items) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(p.items); i++ {
		if p.score(p.items[i]) > p.score(p.items[best]) {
			best = i
		}
	}
	r := p.items[best]
	p.items = append(p.items[:best], p.items[best+1:]...)
	return r
}

// Elevator serves pending requests in ascending LPN order, wrapping to the
// lowest address when the sweep passes the top — the classic one-way
// elevator (C-SCAN) of disk schedulers. On a rotating disk it minimizes
// seeks; on an SSD there is no head to move, so the ordering buys nothing
// and only adds position-dependent waiting. It is included exactly for that
// contrast: the paper opens with HDD performance contracts that SSDs break,
// and this is the scheduler-shaped version of that break.
type Elevator struct {
	items []*iface.Request
	head  iface.LPN // current sweep position
}

// Name implements Policy.
func (*Elevator) Name() string { return "os-elevator" }

// Push implements Policy.
func (e *Elevator) Push(r *iface.Request) { e.items = append(e.items, r) }

// Len implements Policy.
func (e *Elevator) Len() int { return len(e.items) }

// Pop implements Policy.
func (e *Elevator) Pop(sim.Time) *iface.Request {
	if len(e.items) == 0 {
		return nil
	}
	// Smallest LPN at or above the head; if none, wrap to the smallest.
	best, wrap := -1, -1
	for i, r := range e.items {
		if r.LPN >= e.head && (best < 0 || r.LPN < e.items[best].LPN) {
			best = i
		}
		if wrap < 0 || r.LPN < e.items[wrap].LPN {
			wrap = i
		}
	}
	if best < 0 {
		best = wrap
	}
	r := e.items[best]
	e.items = append(e.items[:best], e.items[best+1:]...)
	e.head = r.LPN
	return r
}

// CFQ is a completely-fair-queuing-like policy: threads are served
// round-robin, each getting up to Quantum consecutive IOs while it has any
// pending. It prevents one IO-hungry thread from starving the others.
type CFQ struct {
	// Quantum is how many consecutive IOs one thread may issue before the
	// turn passes. Zero means 4.
	Quantum int

	perThread map[int]*ring
	order     []int // round-robin order of known threads
	cur       int   // index into order
	used      int   // IOs issued in the current quantum
	total     int
}

// Name implements Policy.
func (*CFQ) Name() string { return "os-cfq" }

// Push implements Policy.
func (c *CFQ) Push(r *iface.Request) {
	if c.perThread == nil {
		c.perThread = make(map[int]*ring)
	}
	q, known := c.perThread[r.Thread]
	if !known {
		q = &ring{}
		c.perThread[r.Thread] = q
		c.order = append(c.order, r.Thread)
	}
	q.push(r)
	c.total++
}

// Len implements Policy.
func (c *CFQ) Len() int { return c.total }

func (c *CFQ) quantum() int {
	if c.Quantum > 0 {
		return c.Quantum
	}
	return 4
}

// Pop implements Policy.
func (c *CFQ) Pop(sim.Time) *iface.Request {
	if c.total == 0 {
		return nil
	}
	n := len(c.order)
	for tried := 0; tried < n; tried++ {
		idx := (c.cur + tried) % n
		thread := c.order[idx]
		q := c.perThread[thread]
		if q.len() == 0 {
			continue
		}
		if tried != 0 {
			c.cur = idx
			c.used = 0
		}
		r := q.pop()
		c.total--
		c.used++
		if c.used >= c.quantum() {
			c.cur = (idx + 1) % n
			c.used = 0
		}
		return r
	}
	return nil
}
