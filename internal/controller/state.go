package controller

import (
	"fmt"
	"sort"

	"eagletree/internal/fault"
	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/gc"
	"eagletree/internal/hotcold"
	"eagletree/internal/iface"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/wl"
)

// State is the controller's complete serializable state at a quiescent
// point: no IO in flight, no GC or WL run active, an empty scheduler queue,
// and a drained write buffer. It covers the flash array, the FTL mapping
// tables (page map or DFTL including CMT contents), the block manager's
// allocation state, GC and wear-leveling counters, open-interface hint
// tables, and the stateful extras (MBF detector, random GC victim RNG,
// round-robin allocator position) when the configuration uses them.
//
// Scheduler and OS policy queues are empty at every snapshot point, so
// policy transients other than the ones named above intentionally reset at
// restore — like controller RAM on a power cycle, while everything the
// device would persist (flash contents, mapping tables, wear) survives.
type State struct {
	Counters     Counters
	NextID       uint64
	Completions  uint64
	OpsSinceScan uint64
	Reliability  Reliability

	Array        flash.ArrayState
	BlockManager ftl.BlockManagerState

	// Exactly one of PageMap and DFTL is set, matching Config.Mapping.
	PageMap *ftl.PageMapState
	DFTL    *ftl.DFTLState

	GC gc.CollectorState
	WL wl.LevelerState

	// Open-interface hint tables, sorted by key for stable serialization.
	ThreadPrio []ThreadPrioEntry
	Locality   []LocalityEntry
	TempHints  []TempHintEntry
	WLCold     []iface.LPN

	// Optional stateful-component extras; nil when the configuration does
	// not use the component.
	Detector     *hotcold.MBFState
	GCRandomRNG  *[4]uint64
	AllocRRState *int
	Fault        *fault.State
}

// ThreadPrioEntry is one priority hint received over the bus.
type ThreadPrioEntry struct {
	Thread int
	Prio   iface.Priority
}

// LocalityEntry is one update-locality binding received over the bus.
type LocalityEntry struct {
	LPN   iface.LPN
	Group int
}

// TempHintEntry is one remembered per-page temperature.
type TempHintEntry struct {
	LPN  iface.LPN
	Temp iface.Temperature
}

// checkQuiescent verifies the controller holds no transient work: snapshots
// of a mid-flight controller would silently drop scheduled flash operations.
func (c *Controller) checkQuiescent() error {
	for lun, busy := range c.inflight {
		if busy {
			return fmt.Errorf("controller: LUN %d has an operation in flight", lun)
		}
	}
	for lun, active := range c.gcActive {
		if active {
			return fmt.Errorf("controller: LUN %d has a GC/WL run active", lun)
		}
	}
	if n := c.cfg.Policy.Len(); n != 0 {
		return fmt.Errorf("controller: scheduler queue holds %d requests", n)
	}
	if c.lunFree != 0 || c.busyLUNs != 0 {
		return fmt.Errorf("controller: saturation counters read %d LUN-free requests and %d busy LUNs at rest", c.lunFree, c.busyLUNs)
	}
	if len(c.readWait) != 0 {
		return fmt.Errorf("controller: %d LPNs still index parked reads", len(c.readWait))
	}
	if len(c.deferred) != 0 {
		return fmt.Errorf("controller: %d writes deferred", len(c.deferred))
	}
	if c.lastTrans != nil {
		return fmt.Errorf("controller: translation chain in flight")
	}
	if len(c.condemned) != 0 {
		return fmt.Errorf("controller: %d condemned blocks awaiting relocation", len(c.condemned))
	}
	if c.buffer != nil && (c.buffer.used != 0 || len(c.buffer.waiting) != 0) {
		return fmt.Errorf("controller: write buffer holds %d pages, %d writes stalled",
			c.buffer.used, len(c.buffer.waiting))
	}
	return nil
}

// State captures the controller's complete state. It fails unless the
// controller is quiescent (drive the engine until idle first).
func (c *Controller) State() (*State, error) {
	if err := c.checkQuiescent(); err != nil {
		return nil, err
	}
	st := &State{
		Counters:     c.counters,
		NextID:       c.nextID,
		Completions:  c.completions,
		OpsSinceScan: c.opsSinceScan,
		Reliability:  c.reliability,
		Array:        c.array.State(c.eng.Now()),
		BlockManager: c.bm.State(),
		GC:           c.gc.State(),
		WL:           c.lvl.State(),
	}
	switch m := c.mapper.(type) {
	case *ftl.DFTL:
		ds := m.State()
		st.DFTL = &ds
	case *ftl.PageMap:
		ps := m.State()
		st.PageMap = &ps
	default:
		return nil, fmt.Errorf("%w (mapper %q)", ErrSnapshotUnsupported, c.mapper.Name())
	}
	for th, p := range c.threadPrio {
		st.ThreadPrio = append(st.ThreadPrio, ThreadPrioEntry{Thread: th, Prio: p})
	}
	sort.Slice(st.ThreadPrio, func(i, j int) bool { return st.ThreadPrio[i].Thread < st.ThreadPrio[j].Thread })
	for lpn, g := range c.locality {
		st.Locality = append(st.Locality, LocalityEntry{LPN: lpn, Group: g})
	}
	sort.Slice(st.Locality, func(i, j int) bool { return st.Locality[i].LPN < st.Locality[j].LPN })
	for lpn, t := range c.tempHints {
		st.TempHints = append(st.TempHints, TempHintEntry{LPN: lpn, Temp: t})
	}
	sort.Slice(st.TempHints, func(i, j int) bool { return st.TempHints[i].LPN < st.TempHints[j].LPN })
	for lpn := range c.wlCold {
		st.WLCold = append(st.WLCold, lpn)
	}
	sort.Slice(st.WLCold, func(i, j int) bool { return st.WLCold[i] < st.WLCold[j] })

	if mbf, ok := c.cfg.Detector.(*hotcold.MBF); ok {
		ms := mbf.State()
		st.Detector = &ms
	}
	if r, ok := c.cfg.GCPolicy.(*gc.Random); ok && r.RNG != nil {
		s := r.RNG.State()
		st.GCRandomRNG = &s
	}
	if rr, ok := c.cfg.Alloc.(*sched.RoundRobin); ok {
		pos := rr.Pos()
		st.AllocRRState = &pos
	}
	if c.cfg.Fault != nil {
		fs := c.cfg.Fault.State()
		st.Fault = &fs
	}
	return st, nil
}

// restore finishes Restore: the array and the page map were built from st;
// everything else — small next to those columns — is copied in here.
func (c *Controller) restore(st *State) error {
	if d, ok := c.mapper.(*ftl.DFTL); ok {
		if err := d.RestoreState(*st.DFTL); err != nil {
			return err
		}
	}
	if err := c.bm.RestoreState(st.BlockManager); err != nil {
		return err
	}
	if err := c.gc.RestoreState(st.GC); err != nil {
		return err
	}
	c.lvl.RestoreState(st.WL)
	c.counters = st.Counters
	c.reliability = st.Reliability
	c.nextID = st.NextID
	c.completions = st.Completions
	c.opsSinceScan = st.OpsSinceScan

	for _, e := range st.ThreadPrio {
		c.threadPrio[e.Thread] = e.Prio
	}
	for _, e := range st.Locality {
		c.locality[e.LPN] = e.Group
	}
	for _, e := range st.TempHints {
		c.tempHints[e.LPN] = e.Temp
	}
	for _, lpn := range st.WLCold {
		c.wlCold[lpn] = struct{}{}
	}

	if mbf, ok := c.cfg.Detector.(*hotcold.MBF); ok {
		if st.Detector == nil {
			return fmt.Errorf("%w: config uses the MBF detector but snapshot has no detector state", ErrStateMismatch)
		}
		if err := mbf.RestoreState(*st.Detector); err != nil {
			return err
		}
	}
	if r, ok := c.cfg.GCPolicy.(*gc.Random); ok && st.GCRandomRNG != nil {
		if r.RNG == nil {
			r.RNG = sim.NewRNG(0)
		}
		r.RNG.SetState(*st.GCRandomRNG)
	}
	if rr, ok := c.cfg.Alloc.(*sched.RoundRobin); ok && st.AllocRRState != nil {
		rr.SetPos(*st.AllocRRState)
	}
	if c.cfg.Fault != nil && st.Fault != nil {
		c.cfg.Fault.RestoreState(*st.Fault)
	}
	return nil
}

// Kick re-evaluates GC triggers on every LUN against the *current*
// configuration. After restoring a snapshot prepared under a lazier GC
// target, free space may already sit at or below the new greediness floor
// with no write completion ever coming to start collection — without the
// kick the first measured write could deadlock.
func (c *Controller) Kick() {
	for lun := range c.gcActive {
		c.maybeGC(lun)
	}
}
