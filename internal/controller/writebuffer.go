package controller

import "eagletree/internal/iface"

// writeBuffer models the battery-backed-RAM write buffer module the paper
// suggests as a controller extension: application writes are absorbed at RAM
// latency and flushed to flash in the background. When the buffer is full,
// writes stall until a flush frees a slot — the backpressure a real bounded
// buffer exhibits.
type writeBuffer struct {
	capacity int
	used     int
	waiting  []*iface.Request // writes stalled on a full buffer
}

func newWriteBuffer(capacity int) *writeBuffer {
	return &writeBuffer{capacity: capacity}
}

// bufferWrite absorbs (or stalls) an application write.
func (c *Controller) bufferWrite(r *iface.Request) {
	if c.buffer.used >= c.buffer.capacity {
		c.counters.BufferStalls++
		c.buffer.waiting = append(c.buffer.waiting, r)
		return
	}
	c.absorb(r)
}

// absorb completes the write at RAM latency and enqueues the background
// flush that performs the actual flash program.
func (c *Controller) absorb(r *iface.Request) {
	c.buffer.used++
	now := c.eng.Now()
	r.Dispatched = now

	// The flush inherits the data's identity (LPN, tags, thread) so stream
	// separation and mapping behave exactly as for an unbuffered write, but
	// it is invisible to per-request statistics: the application-visible
	// latency is the RAM store, already recorded on r.
	fst := c.newState(opData)
	fst.buffered = true
	flush := c.newInternal(iface.Write, iface.SourceApp, r.LPN, fst)
	flush.Thread = r.Thread
	flush.Tags = r.Tags

	c.eng.ScheduleCall(now.Add(c.cfg.WriteBufferLatency), c.flushFn, r)
	c.cfg.Policy.Push(flush)
	c.scheduleDispatch()
}

// flushDone is the engine callback completing a buffered write at RAM
// latency: the application sees the store finish while the background flush
// still heads for flash.
func (c *Controller) flushDone(arg any) {
	r := arg.(*iface.Request)
	r.Completed = c.eng.Now()
	c.stats.RecordCompletion(r)
	if st := stateOf(r); st != nil {
		r.Ctl = nil
		c.freeState(st)
	}
	if c.cfg.OnComplete != nil {
		c.cfg.OnComplete(r)
	}
}

// onFlushDone frees a buffer slot and admits a stalled write, if any.
func (c *Controller) onFlushDone() {
	c.buffer.used--
	if w := c.buffer.waiting; len(w) > 0 {
		// Shift rather than reslice: the queue keeps its storage, and it is
		// never longer than the IOs the OS has outstanding.
		next := w[0]
		n := copy(w, w[1:])
		w[n] = nil
		c.buffer.waiting = w[:n]
		c.absorb(next)
	}
}
