package controller

import (
	"eagletree/internal/flash"
	"eagletree/internal/iface"
	"eagletree/internal/stats"
)

// maybeGC starts a collection run on the LUN if free space has fallen to the
// greediness floor and no run already owns the LUN.
func (c *Controller) maybeGC(lun int) {
	if c.gcActive[lun] || !c.gc.ShouldCollect(lun) {
		return
	}
	victim, ok := c.gc.SelectVictim(lun, c.eng.Now())
	if !ok {
		return
	}
	c.startRun(victim, false)
}

// startRun begins migrating a victim block's live pages (GC or static WL).
func (c *Controller) startRun(victim flash.BlockID, isWL bool) {
	run := c.newRun()
	run.victim, run.isWL = victim, isWL
	c.beginRun(run)
}

// startCondemnRun begins relocating the survivors of a grown-bad block. The
// run reuses the GC migration machinery but terminates without an erase: a
// retired block is never reclaimed.
func (c *Controller) startCondemnRun(victim flash.BlockID) {
	run := c.newRun()
	run.victim, run.condemn = victim, true
	c.beginRun(run)
}

// newRun takes a zeroed run record from the free list or allocates one.
//
//eagletree:hotpath
func (c *Controller) newRun() *gcRun {
	n := len(c.runPool)
	if n == 0 {
		return &gcRun{}
	}
	run := c.runPool[n-1]
	c.runPool[n-1] = nil
	c.runPool = c.runPool[:n-1]
	*run = gcRun{}
	return run
}

// freeRun returns a finished run record to the free list. No request state
// refers to it any more: every migration state has been freed and the erase
// state's reference is dropped when that state is.
//
//eagletree:hotpath
func (c *Controller) freeRun(run *gcRun) {
	c.runPool = append(c.runPool, run)
}

// beginRun walks the run's victim and queues a migration pair per live page.
func (c *Controller) beginRun(run *gcRun) {
	victim, isWL := run.victim, run.isWL
	c.gcActive[victim.LUN] = true
	if tr := c.stats.Trace(); tr != nil && !run.condemn {
		stage := stats.StageGCStart
		if isWL {
			stage = stats.StageWLStart
		}
		tr.Record(c.eng.Now(), 0, stage, nil)
	}

	geo := c.array.Geometry()
	src := iface.SourceGC
	readKind, writeKind := opGCRead, opGCWrite
	if isWL {
		src = iface.SourceWL
		readKind, writeKind = opWLRead, opWLWrite
	}
	useCopyback := !isWL && c.cfg.GCCopyback && c.cfg.Features.Copyback

	for page := 0; page < geo.PagesPerBlock; page++ {
		ppa := flash.PPA{LUN: victim.LUN, Block: victim.Block, Page: page}
		if c.array.PageState(ppa) != flash.PageValid {
			continue
		}
		lpn, ok := c.mapper.LPNAt(ppa)
		if !ok {
			// A valid data-region page must be mapped; anything else is a
			// bookkeeping bug worth failing loudly over.
			panic("controller: valid page with no reverse mapping in " + ppa.String())
		}
		run.pending++
		if useCopyback {
			st := c.newState(opGCCopyback)
			st.src, st.run = ppa, run
			c.cfg.Policy.Push(c.newInternal(iface.Write, src, lpn, st))
			continue
		}
		rst := c.newState(readKind)
		rst.src, rst.run = ppa, run
		read := c.newInternal(iface.Read, src, lpn, rst)
		wst := c.newState(writeKind)
		wst.src, wst.run = ppa, run
		wst.blocked = true
		write := c.newInternal(iface.Write, src, lpn, wst)
		rst.next = append(rst.next, write)
		c.cfg.Policy.Push(read)
		c.cfg.Policy.PushBlocked(write)
	}
	if run.pending == 0 {
		c.checkRunDone(run)
	}
	c.scheduleDispatch()
}

// checkRunDone issues the victim erase once every migration pair finished —
// or, for a condemned-block relocation, ends the run without one.
func (c *Controller) checkRunDone(run *gcRun) {
	if run.pending != 0 || run.erased {
		return
	}
	if run.condemn {
		run.erased = true // terminal: a retired block is never erased
		c.finishRun(run)
		return
	}
	c.issueErase(run)
}

func (c *Controller) issueErase(run *gcRun) {
	run.erased = true
	src := iface.SourceGC
	if run.isWL {
		src = iface.SourceWL
	}
	st := c.newState(opGCErase)
	st.run = run
	st.src = flash.PPA{LUN: run.victim.LUN, Block: run.victim.Block}
	c.cfg.Policy.Push(c.newInternal(iface.Erase, src, 0, st))
	c.scheduleDispatch()
}

// finishErase returns the reclaimed block to the free pool and re-arms GC.
// When the erase was failed by injection the block stays retired: nothing is
// released and the run just ends.
func (c *Controller) finishErase(run *gcRun) {
	if !run.failed {
		c.bm.Release(run.victim)
		c.writeEpoch++ // a freed block may flip write readiness
		if !run.isWL {
			c.counters.GCErases++
		}
	}
	c.finishRun(run)
}

// finishRun closes out a GC, WL, or relocation run and re-arms whatever work
// the LUN still owes: queued condemned-block relocations first, then GC.
func (c *Controller) finishRun(run *gcRun) {
	lun := run.victim.LUN
	c.gcActive[lun] = false
	if tr := c.stats.Trace(); tr != nil && !run.isWL && !run.condemn {
		tr.Record(c.eng.Now(), 0, stats.StageGCEnd, nil)
	}
	c.freeRun(run) // the runs started below may reuse the record
	c.drainCondemned(lun)
	if !c.gcActive[lun] {
		c.maybeGC(lun)
	}
}

// drainCondemned starts relocation runs for condemned blocks on the LUN, one
// at a time, whenever no GC/WL run owns the LUN. Blocks condemned while a
// run is active queue until it completes.
func (c *Controller) drainCondemned(lun int) {
	for !c.gcActive[lun] {
		b, ok := c.takeCondemned(lun)
		if !ok {
			return
		}
		if c.array.ValidPagesIn(b) == 0 {
			continue // everything on it died or moved while it waited
		}
		c.startCondemnRun(b)
	}
}

func (c *Controller) takeCondemned(lun int) (flash.BlockID, bool) {
	for i, b := range c.condemned {
		if b.LUN == lun {
			c.condemned = append(c.condemned[:i], c.condemned[i+1:]...)
			return b, true
		}
	}
	return flash.BlockID{}, false
}

// scheduleWLScan arms the periodic static wear-leveling scan. The scan
// disarms itself when the device goes quiet (no completions since the last
// scan) so simulations can drain; any later submission re-arms it.
func (c *Controller) scheduleWLScan() {
	if c.wlScanArmed || !c.cfg.WL.Static {
		return
	}
	c.wlScanArmed = true
	c.eng.ScheduleCall(c.eng.Now().Add(c.cfg.WL.CheckInterval), c.wlScanFn, nil)
}

// wlScanDue is the engine callback of the armed static-WL scan, bound once
// in Restore.
func (c *Controller) wlScanDue(any) {
	c.wlScanArmed = false
	if c.opsSinceScan == 0 {
		return // quiet device: stop scanning until traffic resumes
	}
	c.opsSinceScan = 0
	c.wlScan()
	c.scheduleWLScan()
}

// wlScan migrates the victims static wear leveling identified.
func (c *Controller) wlScan() {
	for _, victim := range c.lvl.Victims(c.eng.Now()) {
		if c.gcActive[victim.LUN] {
			continue // one run per LUN at a time
		}
		c.startRun(victim, true)
	}
}
