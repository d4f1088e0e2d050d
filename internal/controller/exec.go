package controller

import (
	"errors"
	"fmt"
	"unsafe"

	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/iface"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/stats"
)

// pruneEvery bounds reservation-list growth: after this many completions the
// flash array drops intervals that ended in the past.
const pruneEvery = 2048

// streamOf returns the block-manager write stream the request fills, cached
// on the request state until the next temperature-affecting mutation.
//
//eagletree:hotpath
func (c *Controller) streamOf(r *iface.Request, st *reqState) ftl.Stream {
	if st.streamEpoch != c.tempEpoch {
		st.stream = c.computeStream(r, st)
		st.streamEpoch = c.tempEpoch
	}
	return st.stream
}

// computeStream maps a request onto the block-manager write stream it fills.
//
//eagletree:hotpath
func (c *Controller) computeStream(r *iface.Request, st *reqState) ftl.Stream {
	switch st.kind {
	case opGCWrite, opGCCopyback:
		// Temperature-aware GC: migrating live pages back into a shared GC
		// block would re-mix hot and cold data that the write path carefully
		// separated, so known-temperature pages keep their class. The GC
		// variants are internal streams (reserve access), preventing a
		// migration/allocation deadlock.
		switch c.tempOf(r.LPN) {
		case iface.TempHot:
			return ftl.StreamGCHot
		case iface.TempCold:
			return ftl.StreamGCCold
		}
		return ftl.StreamGC
	case opWLWrite:
		return ftl.StreamWL
	case opTransWrite:
		return ftl.StreamDefault // translation pages live in their own region
	}
	if r.Tags.Locality != 0 {
		return ftl.LocalityStream(r.Tags.Locality)
	}
	temp := r.Tags.Temperature
	if temp == iface.TempUnknown {
		temp = c.tempOf(r.LPN)
	}
	switch temp {
	case iface.TempHot:
		return ftl.StreamHot
	case iface.TempCold:
		return ftl.StreamCold
	default:
		return ftl.StreamDefault
	}
}

// tempOf estimates a page's temperature from the three sources the paper
// lists, in confidence order: explicit open-interface information, the
// static-WL cold inference, then the hot-data detector.
//
//eagletree:hotpath
func (c *Controller) tempOf(lpn iface.LPN) iface.Temperature {
	if t, ok := c.tempHints[lpn]; ok {
		return t
	}
	if _, ok := c.wlCold[lpn]; ok {
		// Inference source (1) of the paper: pages migrated by static
		// wear leveling are cold until the application touches them.
		return iface.TempCold
	}
	return c.cfg.Detector.Classify(lpn)
}

// alloc allocates a physical page and invalidates the write-readiness memo:
// the allocation may have consumed a LUN's last available block or opened a
// fresh frontier.
//
//eagletree:hotpath
func (c *Controller) alloc(lun int, stream ftl.Stream) (flash.PPA, error) {
	c.writeEpoch++
	return c.bm.Alloc(lun, stream)
}

// remap updates the forward mapping and invalidates cached lookups. A read
// parked on the page's old LUN may now target a different (possibly idle)
// LUN, so any parked waiter is woken for re-evaluation.
//
//eagletree:hotpath
func (c *Controller) remap(lpn iface.LPN, ppa flash.PPA) (flash.PPA, bool) {
	c.mapEpoch++
	c.wakeRead(lpn)
	return c.mapper.Map(lpn, ppa)
}

// unmap drops the forward mapping and invalidates cached lookups. A queued
// read of the LPN becomes immediately runnable as an unmapped read, so any
// parked waiter is woken.
//
//eagletree:hotpath
func (c *Controller) unmap(lpn iface.LPN) (flash.PPA, bool) {
	c.mapEpoch++
	c.wakeRead(lpn)
	return c.mapper.Unmap(lpn)
}

// newInternal creates a controller-generated request carrying the state,
// reusing a recycled request when possible.
//
//eagletree:hotpath
func (c *Controller) newInternal(t iface.ReqType, src iface.Source, lpn iface.LPN, st *reqState) *iface.Request {
	c.nextID++
	var r *iface.Request
	if n := len(c.reqPool); n > 0 {
		r = c.reqPool[n-1]
		c.reqPool = c.reqPool[:n-1]
	} else {
		r = &iface.Request{}
	}
	*r = iface.Request{
		ID:        1<<63 | c.nextID, // high bit marks internal IDs in traces
		Type:      t,
		LPN:       lpn,
		Source:    src,
		Submitted: c.eng.Now(),
		Issued:    c.eng.Now(),
		Ctl:       unsafe.Pointer(st),
	}
	return r
}

// recycleRequest returns a finished controller-owned request to the pool.
// Callers must only pass requests that are invisible outside the controller
// — internal sources (GC/WL/Map) and buffered-write flushes — whose
// completions are delivered nowhere. Traces are pointer-free (they copy
// value fields), so reuse is safe even while recording.
//
//eagletree:hotpath
func (c *Controller) recycleRequest(r *iface.Request) {
	if c.lastTrans == r {
		// A finished chain tail imposes no ordering on future chains; the
		// nil check in enqueueTransChain would have skipped it anyway.
		c.lastTrans = nil
	}
	c.reqPool = append(c.reqPool, r)
}

// ensureAccess runs the mapping scheme's Access step once per request. When
// the scheme needs translation IOs first, they are enqueued as a dependency
// chain ahead of r (which is re-queued blocked) and ensureAccess reports
// false: the caller must stop and wait for the chain.
//
//eagletree:hotpath
func (c *Controller) ensureAccess(r *iface.Request, st *reqState, write bool) bool {
	if st.accessd {
		return true
	}
	st.accessd = true
	ops := c.mapper.Access(r.LPN, write)
	if len(ops) == 0 {
		return true
	}
	c.enqueueTransChain(ops, r)
	return false
}

// enqueueTransChain pushes the translation ops as SourceMap requests that
// execute strictly in order, then unblock final.
//
// Chains are additionally serialized against each other: the head of this
// chain waits for the tail of the previously planned one. The mapping scheme
// plans physical addresses, stale pointers and ring erases at Access time, so
// translation ops are only correct when executed in global plan order — and a
// real controller serializes its metadata engine the same way.
//
//eagletree:hotpath
func (c *Controller) enqueueTransChain(ops []ftl.TransOp, final *iface.Request) {
	prev := (*iface.Request)(nil)
	for i, op := range ops {
		var t iface.ReqType
		var kind opKind
		switch op.Kind {
		case ftl.TransRead:
			t, kind = iface.Read, opTransRead
		case ftl.TransWrite:
			t, kind = iface.Write, opTransWrite
		default:
			t, kind = iface.Erase, opTransErase
		}
		st := c.newState(kind)
		st.trans = op
		st.blocked = i > 0
		req := c.newInternal(t, iface.SourceMap, final.LPN, st)
		if i == 0 {
			if lt := c.lastTrans; lt != nil {
				if ls := stateOf(lt); ls != nil {
					st.blocked = true
					ls.next = append(ls.next, req)
				}
			}
		}
		if prev != nil {
			ps := stateOf(prev)
			ps.next = append(ps.next, req)
		}
		prev = req
		if st.blocked {
			c.cfg.Policy.PushBlocked(req)
		} else {
			c.cfg.Policy.Push(req)
		}
	}
	c.lastTrans = prev
	fs := stateOf(final)
	fs.blocked = true
	if fs.kind == opData && final.Type != iface.Write {
		c.lunFree++ // popped in executeData, queued again here
	}
	stateOf(prev).next = append(stateOf(prev).next, final)
	c.cfg.Policy.PushBlocked(final)
}

// execute dispatches one popped request to the flash array (or completes it
// directly when no flash work is needed).
//
//eagletree:hotpath
func (c *Controller) execute(r *iface.Request) {
	now := c.eng.Now()
	r.Dispatched = now
	if tr := c.stats.Trace(); tr != nil {
		tr.Record(now, r.ID, stats.StageDispatched, r)
	}
	st := stateOf(r)
	switch st.kind {
	case opTransRead:
		sched, err := c.array.ScheduleRead(st.trans.PPA, now)
		c.must(err, r)
		c.busyUntil(st.trans.PPA.LUN, sched.Done, r, st)
	case opTransWrite:
		sched, err := c.array.ScheduleWrite(st.trans.PPA, now)
		c.must(err, r)
		if st.trans.HasStale {
			c.must(c.array.Invalidate(st.trans.Stale), r)
		}
		c.busyUntil(st.trans.PPA.LUN, sched.Done, r, st)
	case opTransErase:
		sched, err := c.array.ScheduleErase(st.trans.Block, now)
		c.must(err, r)
		c.busyUntil(st.trans.Block.LUN, sched.Done, r, st)
	case opGCRead, opWLRead:
		c.executeMigrationRead(r, st)
	case opGCWrite, opWLWrite:
		c.executeMigrationWrite(r, st)
	case opGCCopyback:
		c.executeCopyback(r, st)
	case opGCErase:
		sched, err := c.array.ScheduleErase(st.run.victim, now)
		if ferr := faultOf(err); ferr != nil {
			c.onEraseFault(ferr, r, st)
		} else {
			c.must(err, r)
		}
		c.busyUntil(st.run.victim.LUN, sched.Done, r, st)
	default:
		c.executeData(r, st)
	}
}

//eagletree:hotpath
func (c *Controller) executeData(r *iface.Request, st *reqState) {
	now := c.eng.Now()
	if r.Type != iface.Write {
		c.lunFree--
	}
	switch r.Type {
	case iface.Read:
		if st.waitRead {
			c.readWaitDel(r, st)
		}
		ppa, ok := c.lookup(r, st)
		if !ok {
			// Reading a never-written page: nothing on flash. Complete after
			// the command-handling latency only, as a real device returning
			// zeroes without touching a chip.
			c.counters.UnmappedReads++
			st.errored = true
			c.eng.ScheduleCall(now.Add(c.cfg.Timing.Cmd), c.ioDoneFn, r)
			return
		}
		if !c.ensureAccess(r, st, false) {
			return // waiting on translation chain
		}
		sched, err := c.array.ScheduleRead(ppa, now)
		c.must(err, r)
		c.busyUntil(ppa.LUN, sched.Done, r, st)
	case iface.Write:
		if !c.ensureAccess(r, st, true) {
			return
		}
		stream := c.streamOf(r, st)
		views := c.lunViews(stream)
		lun, ok := c.cfg.Alloc.PickLUN(r, views)
		if !ok {
			// Evaluate said yes but the allocator refused (e.g. striped
			// placement with a busy home LUN). Defer until a completion
			// changes the picture; re-popping immediately would livelock.
			st.blocked = true
			c.deferred = append(c.deferred, r)
			c.cfg.Policy.PushBlocked(r)
			return
		}
		ppa, err := c.alloc(lun, stream)
		c.must(err, r)
		sched, err := c.array.ScheduleWrite(ppa, now)
		if ferr := faultOf(err); ferr != nil {
			// The page burned but the old mapping is intact; refire the
			// write after the failed program's latency elapses.
			c.onProgramFault(ferr, r, st)
			c.busyUntil(lun, sched.Done, r, st)
			return
		}
		c.must(err, r)
		if old, had := c.remap(r.LPN, ppa); had {
			c.must(c.array.Invalidate(old), r)
		}
		if r.Source == iface.SourceApp {
			if _, had := c.wlCold[r.LPN]; had {
				delete(c.wlCold, r.LPN) // the page proved itself non-cold
				c.tempEpoch++
			}
			c.cfg.Detector.RecordWrite(r.LPN)
			if c.detectorLive {
				// Only a live detector can change a future classification;
				// the default hotcold.None never does, so cached streams
				// stay valid across app writes.
				c.tempEpoch++
			}
		}
		c.busyUntil(lun, sched.Done, r, st)
	case iface.Trim:
		if old, had := c.unmap(r.LPN); had {
			c.must(c.array.Invalidate(old), r)
		}
		c.finish(r, now)
	default:
		c.badRequestType(r)
	}
}

// badRequestType is the cold tail of executeData: building the error message
// allocates, so it stays out of the annotated hot path.
func (c *Controller) badRequestType(r *iface.Request) {
	c.must(fmt.Errorf("controller: unexpected external request type %v", r.Type), r)
}

// lunViews snapshots per-LUN state for the write allocator. The slice is a
// reused scratch buffer, valid only until the next call.
//
//eagletree:hotpath
func (c *Controller) lunViews(stream ftl.Stream) []sched.LUNView {
	views := c.views
	for lun := range views {
		views[lun] = sched.LUNView{
			Busy:     c.inflight[lun],
			FreeAt:   c.array.LUNFreeAt(lun),
			CanAlloc: c.bm.CanAlloc(lun, stream),
		}
	}
	return views
}

// faultOf extracts an injected-fault error — a recoverable outcome the
// controller handles — from a schedule error. Anything else stays fatal.
func faultOf(err error) *flash.FaultError {
	if err == nil {
		return nil
	}
	var ferr *flash.FaultError
	if errors.As(err, &ferr) {
		return ferr
	}
	return nil
}

// onProgramFault records an injected program failure and arms the request to
// refire: the burned page stays behind (invalid, counted against the block)
// and ioDone re-queues the write, which allocates a fresh page — on a new
// frontier when the block retired with the failure.
func (c *Controller) onProgramFault(ferr *flash.FaultError, r *iface.Request, st *reqState) {
	c.reliability.Retries++
	st.refire = true
	if tr := c.stats.Trace(); tr != nil {
		tr.Record(c.eng.Now(), r.ID, stats.StageProgramFault, r)
	}
	if ferr.Grown {
		c.retireBlock(ferr.Block)
	}
}

// onEraseFault records an injected erase failure on a GC/WL victim. The
// block retired (all its pages were already migrated, so nothing is lost);
// the run completes without releasing it back to the free pool.
func (c *Controller) onEraseFault(ferr *flash.FaultError, r *iface.Request, st *reqState) {
	c.reliability.EraseFailures++
	c.reliability.GrownBadBlocks++
	st.run.failed = true
	c.bm.Condemn(ferr.Block) // victims are off the manager's books; no-op by design
	c.writeEpoch++
	if tr := c.stats.Trace(); tr != nil {
		tr.Record(c.eng.Now(), r.ID, stats.StageEraseFault, r)
	}
}

// retireBlock handles a block grown bad mid-run: the allocation books close
// (open frontier dropped, free-pool entry removed — the pool shrinks for
// good) and any live pages still on it queue for relocation.
func (c *Controller) retireBlock(b flash.BlockID) {
	c.reliability.GrownBadBlocks++
	c.bm.Condemn(b)
	c.writeEpoch++ // the pool shrank; write readiness may have changed
	if c.array.ValidPagesIn(b) > 0 {
		c.condemned = append(c.condemned, b)
		c.drainCondemned(b.LUN)
	}
}

// must panics on errors that can only be controller bugs (NAND constraint
// violations, allocation failures after Evaluate approved). Failing loudly
// here is deliberate: continuing would silently corrupt every metric the
// simulator exists to produce.
func (c *Controller) must(err error, r *iface.Request) {
	if err != nil {
		panic(fmt.Sprintf("controller: dispatching %v: %v", r, err))
	}
}

// busyUntil marks the LUN occupied and schedules the request's completion.
//
//eagletree:hotpath
func (c *Controller) busyUntil(lun int, done sim.Time, r *iface.Request, st *reqState) {
	c.inflight[lun] = true
	c.busyLUNs++
	c.writeEpoch++
	st.busyLUN = lun
	c.eng.ScheduleCall(done, c.ioDoneFn, r)
}

// ioDone is the engine callback for every flash completion: it releases the
// LUN the request occupied (if any) and finishes the request. Bound once in
// New so per-IO scheduling carries only the request pointer.
//
//eagletree:hotpath
func (c *Controller) ioDone(arg any) {
	r := arg.(*iface.Request)
	st := stateOf(r)
	if st.busyLUN >= 0 {
		c.inflight[st.busyLUN] = false
		c.busyLUNs--
		c.writeEpoch++
		c.lunEpoch[st.busyLUN]++ // the idle LUN wakes its parked wait-class
		st.busyLUN = -1
	}
	if st.refire {
		// An injected program failure burned this write's page. Re-queue it:
		// the next dispatch allocates a fresh page for the same LPN, and the
		// mapping still points at the old data until the retry lands.
		st.refire = false
		c.cfg.Policy.Push(r)
		c.scheduleDispatch()
		return
	}
	c.finish(r, c.eng.Now())
}

// finish completes a request: stamps it, records statistics, unblocks any
// dependency chain successor, notifies GC/WL bookkeeping, delivers external
// completions to the OS, re-arms dispatch, and recycles the request state.
//
//eagletree:hotpath
func (c *Controller) finish(r *iface.Request, at sim.Time) {
	st := stateOf(r)
	r.Completed = at
	if !st.buffered {
		if st.tsinkEpoch == c.stats.SinkEpoch() {
			c.stats.RecordCompletionTo(r, st.tsink)
		} else {
			c.stats.RecordCompletion(r)
		}
	}
	c.unblockSuccessors(st)
	// Detach before any callback below: OnComplete may synchronously submit
	// new IOs, possibly reusing this very request object.
	r.Ctl = nil

	switch st.kind {
	case opGCWrite, opGCCopyback:
		if st.run.condemn {
			c.reliability.Relocations++
		} else {
			c.counters.GCMigratedPages++
		}
		st.run.pending--
		c.checkRunDone(st.run)
	case opWLWrite:
		c.counters.WLMigratedPages++
		st.run.pending--
		c.checkRunDone(st.run)
	case opGCErase:
		c.finishErase(st.run)
	case opData:
		if r.Type == iface.Write {
			lun := -1
			if ppa, ok := c.mapper.Lookup(r.LPN); ok {
				lun = ppa.LUN
			}
			if lun >= 0 {
				c.maybeGC(lun)
			}
		}
		if r.Source == iface.SourceApp && c.cfg.OnComplete != nil && !st.buffered {
			c.cfg.OnComplete(r)
		}
		if st.buffered {
			c.onFlushDone()
		}
	}

	if len(c.deferred) > 0 {
		for _, d := range c.deferred {
			if ds := stateOf(d); ds != nil {
				ds.blocked = false
				c.cfg.Policy.Unblock(d)
			}
		}
		c.deferred = c.deferred[:0]
	}
	c.opsSinceScan++
	if c.completions++; c.completions%pruneEvery == 0 {
		c.array.Prune(c.eng.Now())
	}
	c.scheduleDispatch()
	ownReq := st.buffered || r.Source != iface.SourceApp
	c.freeState(st)
	if ownReq {
		c.recycleRequest(r)
	}
}

// unblockSuccessors releases every dependency-chain successor of a request
// that is completing or being skipped, making them visible to dispatch again.
//
//eagletree:hotpath
func (c *Controller) unblockSuccessors(st *reqState) {
	for _, succ := range st.next {
		if ss := stateOf(succ); ss != nil {
			ss.blocked = false
			c.cfg.Policy.Unblock(succ)
		}
	}
}

// skipMigration accounts for a migration pair whose page died (the
// application overwrote it) before the pair ran. Successors' own liveness
// re-check will skip them the same way; accounting happens on the write
// half only.
//
//eagletree:hotpath
func (c *Controller) skipMigration(r *iface.Request, st *reqState) {
	c.unblockSuccessors(st)
	r.Ctl = nil
	if st.kind == opGCWrite || st.kind == opWLWrite || st.kind == opGCCopyback {
		st.run.pending--
		c.checkRunDone(st.run)
	}
	c.scheduleDispatch()
	c.freeState(st)
	c.recycleRequest(r) // migration requests are always internal
}

//eagletree:hotpath
func (c *Controller) executeMigrationRead(r *iface.Request, st *reqState) {
	if cur, ok := c.mapper.Lookup(r.LPN); !ok || cur != st.src {
		c.skipMigration(r, st)
		return
	}
	sched, err := c.array.ScheduleRead(st.src, c.eng.Now())
	c.must(err, r)
	c.busyUntil(st.src.LUN, sched.Done, r, st)
}

//eagletree:hotpath
func (c *Controller) executeMigrationWrite(r *iface.Request, st *reqState) {
	if cur, ok := c.mapper.Lookup(r.LPN); !ok || cur != st.src {
		c.skipMigration(r, st)
		return
	}
	if !c.ensureAccess(r, st, true) {
		return
	}
	stream := c.streamOf(r, st)
	ppa, err := c.alloc(st.src.LUN, stream)
	c.must(err, r)
	sched, err := c.array.ScheduleWrite(ppa, c.eng.Now())
	if ferr := faultOf(err); ferr != nil {
		c.onProgramFault(ferr, r, st)
		c.busyUntil(st.src.LUN, sched.Done, r, st)
		return
	}
	c.must(err, r)
	if old, had := c.remap(r.LPN, ppa); had {
		c.must(c.array.Invalidate(old), r)
	}
	if st.kind == opWLWrite {
		c.wlCold[r.LPN] = struct{}{}
		c.tempEpoch++
	}
	c.busyUntil(st.src.LUN, sched.Done, r, st)
}

//eagletree:hotpath
func (c *Controller) executeCopyback(r *iface.Request, st *reqState) {
	if cur, ok := c.mapper.Lookup(r.LPN); !ok || cur != st.src {
		c.skipMigration(r, st)
		return
	}
	if !c.ensureAccess(r, st, true) {
		return
	}
	dst, err := c.alloc(st.src.LUN, ftl.StreamGC)
	c.must(err, r)
	sched, err := c.array.ScheduleCopyback(st.src, dst, c.eng.Now())
	if ferr := faultOf(err); ferr != nil {
		c.onProgramFault(ferr, r, st)
		c.busyUntil(st.src.LUN, sched.Done, r, st)
		return
	}
	c.must(err, r)
	if old, had := c.remap(r.LPN, dst); had {
		c.must(c.array.Invalidate(old), r)
	}
	c.busyUntil(st.src.LUN, sched.Done, r, st)
}
