package snapshot

import (
	"encoding/binary"
	"errors"
	"math"

	"eagletree/internal/binfmt"
	"eagletree/internal/controller"
	"eagletree/internal/fault"
	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/gc"
	"eagletree/internal/hotcold"
	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/sim"
	"eagletree/internal/wl"
	"eagletree/internal/workload"
)

// A snapshot is a sealed binfmt record (DESIGN.md, "Binary formats").
// Version 2 appended reliability counters and optional fault-model state to
// the controller section. Version 3 stores the page map's forward column
// alone: the reverse column is derived state, rebuilt by the restored map.
// Older snapshots are rejected with ErrVersion; the disk state cache
// rebuilds undecodable entries, so no migration is needed.
var format = binfmt.Format{Magic: "EGTSNAP", Version: 3,
	ErrMagic: ErrNotSnapshot, ErrVersion: ErrVersion, ErrTruncated: ErrTruncated, ErrCorrupt: ErrCorrupt}

// Errors reported by Decode. Wrapped with detail; match with errors.Is.
var (
	// ErrNotSnapshot marks input that does not start with the format magic.
	ErrNotSnapshot = errors.New("snapshot: not a snapshot file")
	// ErrVersion marks a snapshot written by an unknown format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated marks input shorter than its own structure promises.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrCorrupt marks a payload whose checksum does not match.
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// Encode serializes the state to the versioned binary format.
//
//eagletree:snapshot encode DeviceState EngineState
func Encode(ds *DeviceState) []byte {
	e := &enc{b: format.Begin(make([]byte, 0, 1<<16))}
	e.meta(ds.Meta)
	e.time(ds.Engine.Now)
	e.u64(ds.Engine.Seq)
	e.u64(ds.Engine.Fired)
	e.osStats(&ds.OS)
	e.runner(&ds.Runner)
	e.controller(&ds.Controller)
	return format.Seal(e.b)
}

// Decode parses a snapshot produced by Encode, verifying magic, version and
// checksum before touching any field.
//
//eagletree:snapshot decode DeviceState EngineState
func Decode(data []byte) (*DeviceState, error) {
	r, err := format.Open(data)
	if err != nil {
		return nil, err
	}
	d := &dec{r}
	ds := &DeviceState{}
	d.metaInto(&ds.Meta)
	ds.Engine.Now = d.time()
	ds.Engine.Seq = d.U64()
	ds.Engine.Fired = d.U64()
	d.osStatsInto(&ds.OS)
	d.runnerInto(&ds.Runner)
	d.controllerInto(&ds.Controller)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Verify checks that data is a complete, well-formed snapshot — magic,
// version, checksum and every structural field — without handing the decoded
// state to the caller; the errors are Decode's typed errors. It costs a full
// decode, so no transport calls it: a store that only forwards snapshots
// checks their seal (CheckSeal), and the end that restores one decodes it.
func Verify(data []byte) error {
	_, err := Decode(data)
	return err
}

// CheckSeal checks the framing Encode wrote — magic, version and the CRC32
// over the payload — without decoding a field. It proves bytes intact since
// they were sealed, not that they decode: a state cache that only serves or
// stores snapshots admits them on it, and the restoring end still decodes
// in full. The errors are Decode's typed errors.
func CheckSeal(data []byte) error {
	_, err := format.Open(data)
	return err
}

// --- encoder ---

type enc struct{ b []byte }

func (e *enc) u64(v uint64)    { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)     { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) int(v int)       { e.i64(int64(v)) }
func (e *enc) time(t sim.Time) { e.i64(int64(t)) }
func (e *enc) f64(v float64)   { e.fix64(math.Float64bits(v)) }
func (e *enc) fix64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string)    { e.u64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) raw(p []byte)    { e.u64(uint64(len(p))); e.b = append(e.b, p...) }
func (e *enc) rng(s [4]uint64) { e.fix64(s[0]); e.fix64(s[1]); e.fix64(s[2]); e.fix64(s[3]) }

func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

//eagletree:snapshot encode Meta flash.Geometry
func (e *enc) meta(m Meta) {
	g := m.Geometry
	e.int(g.Channels)
	e.int(g.LUNsPerChannel)
	e.int(g.BlocksPerLUN)
	e.int(g.PagesPerBlock)
	e.int(g.PageSize)
	e.str(m.Mapping)
	e.int(m.LogicalPages)
	e.u64(m.Seed)
}

//eagletree:snapshot encode osched.Stats
func (e *enc) osStats(s *osched.Stats) {
	e.u64(s.Submitted)
	e.u64(s.Issued)
	e.u64(s.Completed)
	e.int(s.MaxPending)
	e.int(s.MaxInFlight)
}

//eagletree:snapshot encode workload.RunnerState
func (e *enc) runner(r *workload.RunnerState) {
	e.rng(r.RNG)
	e.u64(r.NextReqID)
	e.int(r.NextThreadID)
}

//eagletree:snapshot encode controller.State controller.Counters controller.Reliability
//eagletree:snapshot encode controller.ThreadPrioEntry controller.LocalityEntry controller.TempHintEntry
//eagletree:snapshot encode hotcold.MBFState fault.State
func (e *enc) controller(st *controller.State) {
	c := st.Counters
	for _, v := range []uint64{c.AppReads, c.AppWrites, c.AppTrims, c.UnmappedReads,
		c.GCMigratedPages, c.GCErases, c.WLMigratedPages, c.BufferedWrites, c.BufferStalls} {
		e.u64(v)
	}
	e.u64(st.NextID)
	e.u64(st.Completions)
	e.u64(st.OpsSinceScan)
	e.array(&st.Array)
	e.blockManager(&st.BlockManager)
	switch {
	case st.DFTL != nil:
		e.b = append(e.b, 1)
		e.dftl(st.DFTL)
	case st.PageMap != nil:
		e.b = append(e.b, 0)
		e.pageMap(st.PageMap)
	default:
		panic("snapshot: controller state carries no mapper")
	}
	e.gcState(&st.GC)
	e.wlState(&st.WL)

	e.u64(uint64(len(st.ThreadPrio)))
	for _, h := range st.ThreadPrio {
		e.int(h.Thread)
		e.int(int(h.Prio))
	}
	e.u64(uint64(len(st.Locality)))
	for _, h := range st.Locality {
		e.i64(int64(h.LPN))
		e.int(h.Group)
	}
	e.u64(uint64(len(st.TempHints)))
	for _, h := range st.TempHints {
		e.i64(int64(h.LPN))
		e.int(int(h.Temp))
	}
	e.u64(uint64(len(st.WLCold)))
	for _, lpn := range st.WLCold {
		e.i64(int64(lpn))
	}

	e.bool(st.Detector != nil)
	if st.Detector != nil {
		e.u64(uint64(len(st.Detector.Filters)))
		for _, bits := range st.Detector.Filters {
			e.u64(uint64(len(bits)))
			for _, w := range bits {
				e.fix64(w)
			}
		}
		e.int(st.Detector.Cur)
		e.int(st.Detector.SinceTurn)
		e.u64(st.Detector.Writes)
	}
	e.bool(st.GCRandomRNG != nil)
	if st.GCRandomRNG != nil {
		e.rng(*st.GCRandomRNG)
	}
	e.bool(st.AllocRRState != nil)
	if st.AllocRRState != nil {
		e.int(*st.AllocRRState)
	}
	r := st.Reliability
	e.u64(r.Retries)
	e.u64(r.Relocations)
	e.u64(r.EraseFailures)
	e.u64(r.GrownBadBlocks)
	e.bool(st.Fault != nil)
	if st.Fault != nil {
		e.rng(st.Fault.RNG)
		e.bool(st.Fault.Fired)
	}
}

//eagletree:snapshot encode gc.CollectorState
func (e *enc) gcState(cs *gc.CollectorState) {
	e.u64(uint64(len(cs.Triggered)))
	for _, v := range cs.Triggered {
		e.u64(v)
	}
}

//eagletree:snapshot encode wl.LevelerState
func (e *enc) wlState(ws *wl.LevelerState) {
	e.u64(ws.Scans)
	e.u64(ws.Migrated)
	e.u64(ws.TotalErases)
	e.f64(ws.ObservedAvg)
}

//eagletree:snapshot encode flash.ArrayState flash.BlockColumns flash.Counters
func (e *enc) array(a *flash.ArrayState) {
	pages := make([]byte, len(a.Pages))
	for i, p := range a.Pages {
		pages[i] = byte(p)
	}
	e.raw(pages)
	c := &a.Blocks
	e.u64(uint64(len(c.EraseCount)))
	for i := range c.EraseCount {
		e.i64(int64(c.EraseCount[i]))
		e.time(c.LastErase[i])
		e.i64(int64(c.ValidPages[i]))
		e.i64(int64(c.WritePtr[i]))
		e.bool(c.Bad[i])
	}
	free := freeCounts(a.Blocks, len(a.LUNs))
	e.u64(uint64(len(free)))
	for _, v := range free {
		e.int(v)
	}
	e.u64(a.Counters.Reads)
	e.u64(a.Counters.Writes)
	e.u64(a.Counters.Erases)
	e.u64(a.Counters.Copybacks)
	e.resources(a.Channels)
	e.resources(a.LUNs)
}

// freeCounts derives v3's per-LUN free-block slot from the block columns:
// a block is free when it is not bad and its write pointer is 0, counted
// over every block of the LUN. The array keeps no such count; the slot is a
// redundancy the decoder checks.
func freeCounts(c flash.BlockColumns, luns int) []int {
	if luns == 0 {
		return nil
	}
	out, perLUN := make([]int, luns), len(c.Bad)/luns
	for i, bad := range c.Bad {
		if !bad && c.WritePtr[i] == 0 {
			out[i/perLUN]++
		}
	}
	return out
}

//eagletree:snapshot encode flash.ResourceState flash.Interval
func (e *enc) resources(rs []flash.ResourceState) {
	e.u64(uint64(len(rs)))
	for _, r := range rs {
		e.u64(uint64(len(r.Intervals)))
		for _, iv := range r.Intervals {
			e.time(iv.Start)
			e.time(iv.End)
		}
	}
}

//eagletree:snapshot encode ftl.BlockManagerState ftl.LUNAllocState ftl.OpenBlockState
func (e *enc) blockManager(bm *ftl.BlockManagerState) {
	e.u64(uint64(len(bm.LUNs)))
	for _, l := range bm.LUNs {
		e.u64(uint64(len(l.Free)))
		for _, b := range l.Free {
			e.int(b)
		}
		e.u64(uint64(len(l.Open)))
		for _, ob := range l.Open {
			e.int(int(ob.Stream))
			e.int(ob.Block)
			e.int(ob.Next)
		}
	}
}

//eagletree:snapshot encode ftl.PageMapState
func (e *enc) pageMap(pm *ftl.PageMapState) {
	e.u64(uint64(len(pm.Forward)))
	for _, v := range pm.Forward {
		e.i64(int64(v))
	}
	e.int(pm.Mapped)
}

//eagletree:snapshot encode ftl.DFTLState ftl.CMTEntryState ftl.GTDEntryState
//eagletree:snapshot encode ftl.RingBlockState ftl.DFTLStats flash.PPA flash.BlockID
func (e *enc) dftl(d *ftl.DFTLState) {
	e.pageMap(&d.Truth)
	e.u64(uint64(len(d.CMT)))
	for _, c := range d.CMT {
		e.i64(int64(c.LPN))
		e.bool(c.Dirty)
	}
	e.u64(uint64(len(d.GTD)))
	for _, g := range d.GTD {
		e.int(g.TVPN)
		e.int(g.PPA.LUN)
		e.int(g.PPA.Block)
		e.int(g.PPA.Page)
	}
	e.u64(uint64(len(d.Ring)))
	for _, rb := range d.Ring {
		e.int(rb.ID.LUN)
		e.int(rb.ID.Block)
		e.int(rb.WritePtr)
		e.int(rb.Live)
		e.u64(uint64(len(rb.TVPNs)))
		for _, tv := range rb.TVPNs {
			e.i64(int64(tv))
		}
	}
	e.int(d.Cur)
	s := d.Stats
	for _, v := range []uint64{s.Hits, s.Misses, s.CleanEvicts, s.DirtyEvicts,
		s.TransReads, s.TransWrites, s.TransErases} {
		e.u64(v)
	}
}

// --- decoder ---

// dec adds the snapshot's own field types to the shared reader.
type dec struct{ binfmt.Reader }

func (d *dec) int() int       { return int(d.I64()) }
func (d *dec) time() sim.Time { return sim.Time(d.I64()) }
func (d *dec) f64() float64   { return math.Float64frombits(d.Fix64()) }

func (d *dec) rng() (s [4]uint64) {
	s[0], s[1], s[2], s[3] = d.Fix64(), d.Fix64(), d.Fix64(), d.Fix64()
	return s
}

//eagletree:snapshot decode Meta flash.Geometry
func (d *dec) metaInto(m *Meta) {
	m.Geometry.Channels = d.int()
	m.Geometry.LUNsPerChannel = d.int()
	m.Geometry.BlocksPerLUN = d.int()
	m.Geometry.PagesPerBlock = d.int()
	m.Geometry.PageSize = d.int()
	m.Mapping = d.Str()
	m.LogicalPages = d.int()
	m.Seed = d.U64()
}

//eagletree:snapshot decode osched.Stats
func (d *dec) osStatsInto(s *osched.Stats) {
	s.Submitted = d.U64()
	s.Issued = d.U64()
	s.Completed = d.U64()
	s.MaxPending = d.int()
	s.MaxInFlight = d.int()
}

//eagletree:snapshot decode workload.RunnerState
func (d *dec) runnerInto(r *workload.RunnerState) {
	r.RNG = d.rng()
	r.NextReqID = d.U64()
	r.NextThreadID = d.int()
}

//eagletree:snapshot decode controller.State controller.Counters controller.Reliability
//eagletree:snapshot decode controller.ThreadPrioEntry controller.LocalityEntry controller.TempHintEntry
//eagletree:snapshot decode hotcold.MBFState fault.State
func (d *dec) controllerInto(st *controller.State) {
	c := &st.Counters
	for _, p := range []*uint64{&c.AppReads, &c.AppWrites, &c.AppTrims, &c.UnmappedReads,
		&c.GCMigratedPages, &c.GCErases, &c.WLMigratedPages, &c.BufferedWrites, &c.BufferStalls} {
		*p = d.U64()
	}
	st.NextID = d.U64()
	st.Completions = d.U64()
	st.OpsSinceScan = d.U64()
	d.arrayInto(&st.Array)
	d.blockManagerInto(&st.BlockManager)
	if d.Err() != nil {
		return
	}
	pages := len(st.Array.Pages)
	switch tag := d.Bool(); tag {
	case true:
		st.DFTL = &ftl.DFTLState{}
		d.dftlInto(st.DFTL, pages)
	default:
		st.PageMap = &ftl.PageMapState{}
		d.pageMapInto(st.PageMap, pages)
	}
	d.gcStateInto(&st.GC)
	d.wlStateInto(&st.WL)

	if n := d.Count(1); n > 0 {
		st.ThreadPrio = make([]controller.ThreadPrioEntry, n)
		for i := range st.ThreadPrio {
			st.ThreadPrio[i] = controller.ThreadPrioEntry{Thread: d.int(), Prio: iface.Priority(d.int())}
		}
	}
	if n := d.Count(1); n > 0 {
		st.Locality = make([]controller.LocalityEntry, n)
		for i := range st.Locality {
			st.Locality[i] = controller.LocalityEntry{LPN: iface.LPN(d.I64()), Group: d.int()}
		}
	}
	if n := d.Count(1); n > 0 {
		st.TempHints = make([]controller.TempHintEntry, n)
		for i := range st.TempHints {
			st.TempHints[i] = controller.TempHintEntry{LPN: iface.LPN(d.I64()), Temp: iface.Temperature(d.int())}
		}
	}
	if n := d.Count(1); n > 0 {
		st.WLCold = make([]iface.LPN, n)
		for i := range st.WLCold {
			st.WLCold[i] = iface.LPN(d.I64())
		}
	}

	if d.Bool() {
		det := &hotcold.MBFState{}
		det.Filters = make([][]uint64, d.Count(1))
		for i := range det.Filters {
			bits := make([]uint64, d.Count(8))
			for j := range bits {
				bits[j] = d.Fix64()
			}
			det.Filters[i] = bits
		}
		det.Cur = d.int()
		det.SinceTurn = d.int()
		det.Writes = d.U64()
		st.Detector = det
	}
	if d.Bool() {
		s := d.rng()
		st.GCRandomRNG = &s
	}
	if d.Bool() {
		v := d.int()
		st.AllocRRState = &v
	}
	st.Reliability.Retries = d.U64()
	st.Reliability.Relocations = d.U64()
	st.Reliability.EraseFailures = d.U64()
	st.Reliability.GrownBadBlocks = d.U64()
	if d.Bool() {
		fs := &fault.State{}
		fs.RNG = d.rng()
		fs.Fired = d.Bool()
		st.Fault = fs
	}
}

//eagletree:snapshot decode gc.CollectorState
func (d *dec) gcStateInto(cs *gc.CollectorState) {
	cs.Triggered = make([]uint64, d.Count(1))
	for i := range cs.Triggered {
		cs.Triggered[i] = d.U64()
	}
}

//eagletree:snapshot decode wl.LevelerState
func (d *dec) wlStateInto(ws *wl.LevelerState) {
	ws.Scans = d.U64()
	ws.Migrated = d.U64()
	ws.TotalErases = d.U64()
	ws.ObservedAvg = d.f64()
}

// arrayInto reads the array and checks every block's metadata against its
// page states, which restore trusts: an erase count that fits the array's
// int32 column, a write pointer with exactly the programmed pages before it,
// and a valid count equal to the valid pages among them. Pages per block
// come from the decoded columns' lengths, not from the header. The per-LUN
// free counts are not kept: each must equal the count the columns give.
//
//eagletree:snapshot decode flash.ArrayState flash.BlockColumns flash.Counters
func (d *dec) arrayInto(a *flash.ArrayState) {
	pages := d.Raw()
	n := d.Count(1)
	if d.Err() != nil {
		return
	}
	ppb := 0
	if n > 0 {
		ppb = len(pages) / n
	}
	if ppb*n != len(pages) {
		d.Corruptf("%d page states do not divide into %d blocks", len(pages), n)
		return
	}
	c := flash.BlockColumns{
		EraseCount: make([]int32, n),
		LastErase:  make([]sim.Time, n),
		ValidPages: make([]int32, n),
		WritePtr:   make([]int32, n),
		Bad:        make([]bool, n),
	}
	a.Pages = make([]flash.PageState, len(pages))
	for i := 0; i < n; i++ {
		ec, last, vp, wp, retired := d.int(), d.time(), d.int(), d.int(), d.Bool()
		if d.Err() != nil {
			return
		}
		if ec < 0 || ec > math.MaxInt32 || wp < 0 || wp > ppb {
			d.Corruptf("block %d: erase count %d or write pointer %d out of range", i, ec, wp)
			return
		}
		// A programmed page is valid (1) or invalid (2), so p-1 is 0 or 1;
		// an erased page is free (0) and stays zero in a.Pages. No branch
		// per page: an aged device mixes valid and invalid pages at random.
		programmed, erased := pages[i*ppb:i*ppb+wp], pages[i*ppb+wp:(i+1)*ppb]
		dst := a.Pages[i*ppb:][:len(programmed)]
		valid, bad := 0, byte(0)
		for j, p := range programmed {
			dst[j] = flash.PageState(p)
			valid += int(p & byte(flash.PageValid))
			bad |= (p - byte(flash.PageValid)) &^ 1
		}
		for _, p := range erased {
			bad |= p
		}
		if bad != 0 || valid != vp {
			d.Corruptf("block %d: write pointer %d and %d valid pages disagree with its page states", i, wp, vp)
			return
		}
		c.EraseCount[i], c.LastErase[i], c.ValidPages[i], c.WritePtr[i], c.Bad[i] = int32(ec), last, int32(vp), int32(wp), retired
	}
	a.Blocks = c
	free := make([]int, d.Count(1))
	for i := range free {
		free[i] = d.int()
	}
	a.Counters.Reads = d.U64()
	a.Counters.Writes = d.U64()
	a.Counters.Erases = d.U64()
	a.Counters.Copybacks = d.U64()
	a.Channels = d.resources()
	a.LUNs = d.resources()
	if d.Err() != nil {
		return
	}
	if len(a.LUNs) > 0 && n%len(a.LUNs) != 0 {
		d.Corruptf("%d blocks do not divide into %d LUNs", n, len(a.LUNs))
		return
	}
	want := freeCounts(c, len(a.LUNs))
	if len(free) != len(want) {
		d.Corruptf("%d per-LUN free counts for %d LUNs", len(free), len(want))
		return
	}
	for lun, f := range want {
		if free[lun] != f {
			d.Corruptf("LUN %d: free count %d, its block columns hold %d free blocks", lun, free[lun], f)
			return
		}
	}
}

//eagletree:snapshot decode flash.ResourceState flash.Interval
func (d *dec) resources() []flash.ResourceState {
	rs := make([]flash.ResourceState, d.Count(1))
	for i := range rs {
		ivs := make([]flash.Interval, d.Count(1))
		for j := range ivs {
			ivs[j] = flash.Interval{Start: d.time(), End: d.time()}
		}
		rs[i].Intervals = ivs
	}
	return rs
}

//eagletree:snapshot decode ftl.BlockManagerState ftl.LUNAllocState ftl.OpenBlockState
func (d *dec) blockManagerInto(bm *ftl.BlockManagerState) {
	bm.LUNs = make([]ftl.LUNAllocState, d.Count(1))
	for i := range bm.LUNs {
		l := &bm.LUNs[i]
		l.Free = make([]int, d.Count(1))
		for j := range l.Free {
			l.Free[j] = d.int()
		}
		if n := d.Count(1); n > 0 {
			l.Open = make([]ftl.OpenBlockState, n)
			for j := range l.Open {
				l.Open[j] = ftl.OpenBlockState{Stream: uint8(d.int()), Block: d.int(), Next: d.int()}
			}
		}
	}
}

// pageMapInto reads the forward column and checks what building the reverse
// column from it relies on: every entry -1 or a distinct page below pages,
// Mapped of them bound. pages is the decoded page-state column's length, not
// header arithmetic, so a corrupt header cannot inflate the check's bitmap.
//
//eagletree:snapshot decode ftl.PageMapState
func (d *dec) pageMapInto(pm *ftl.PageMapState, pages int) {
	pm.Forward = d.Int32Column()
	pm.Mapped = d.int()
	if d.Err() != nil {
		return
	}
	seen := make([]uint64, (pages+63)/64)
	n := 0
	for lpn, idx := range pm.Forward {
		if idx == -1 {
			continue
		}
		if uint(idx) >= uint(pages) || seen[idx>>6]&(1<<(idx&63)) != 0 {
			d.Corruptf("LPN %d maps to page %d of %d, or to a page another LPN holds", lpn, idx, pages)
			return
		}
		seen[idx>>6] |= 1 << (idx & 63)
		n++
	}
	if n != pm.Mapped {
		d.Corruptf("page map binds %d LPNs, says %d", n, pm.Mapped)
	}
}

//eagletree:snapshot decode ftl.DFTLState ftl.CMTEntryState ftl.GTDEntryState
//eagletree:snapshot decode ftl.RingBlockState ftl.DFTLStats flash.PPA flash.BlockID
func (d *dec) dftlInto(df *ftl.DFTLState, pages int) {
	d.pageMapInto(&df.Truth, pages)
	if n := d.Count(1); n > 0 {
		df.CMT = make([]ftl.CMTEntryState, n)
		for i := range df.CMT {
			df.CMT[i] = ftl.CMTEntryState{LPN: iface.LPN(d.I64()), Dirty: d.Bool()}
		}
	}
	if n := d.Count(1); n > 0 {
		df.GTD = make([]ftl.GTDEntryState, n)
		for i := range df.GTD {
			df.GTD[i] = ftl.GTDEntryState{TVPN: d.int(),
				PPA: flash.PPA{LUN: d.int(), Block: d.int(), Page: d.int()}}
		}
	}
	df.Ring = make([]ftl.RingBlockState, d.Count(1))
	for i := range df.Ring {
		rb := &df.Ring[i]
		rb.ID = flash.BlockID{LUN: d.int(), Block: d.int()}
		rb.WritePtr = d.int()
		rb.Live = d.int()
		rb.TVPNs = make([]int32, d.Count(1))
		for j := range rb.TVPNs {
			rb.TVPNs[j] = int32(d.I64())
		}
	}
	df.Cur = d.int()
	s := &df.Stats
	for _, p := range []*uint64{&s.Hits, &s.Misses, &s.CleanEvicts, &s.DirtyEvicts,
		&s.TransReads, &s.TransWrites, &s.TransErases} {
		*p = d.U64()
	}
}
