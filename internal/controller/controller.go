// Package controller implements the SSD controller: it orchestrates the
// mapping scheme, garbage collection, wear leveling and IO scheduling over
// the flash array, exposes the device interface the OS submits to, and
// optionally honors open-interface hints (priorities, update-locality,
// temperatures).
//
// Everything the controller does flows through one scheduler queue: external
// reads and writes, GC migrations, wear-leveling migrations, DFTL
// translation traffic, and erases. That single queue is what lets EagleTree
// study how internal operations interfere with application IOs.
//
//eagletree:typederrors
package controller

import (
	"errors"
	"fmt"

	"unsafe"

	"eagletree/internal/fault"
	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/gc"
	"eagletree/internal/hotcold"
	"eagletree/internal/iface"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/stats"
	"eagletree/internal/wl"
)

// WLOff returns a wear-leveling configuration with both static and dynamic
// modes disabled — the baseline for wear experiments.
func WLOff() wl.Config {
	cfg := wl.DefaultConfig()
	cfg.Static = false
	cfg.Dynamic = false
	return cfg
}

// MappingScheme selects the FTL mapping implementation.
type MappingScheme int

const (
	// MapPageRAM keeps the full page map in controller RAM.
	MapPageRAM MappingScheme = iota
	// MapDFTL caches mappings on demand; the full table lives on flash.
	MapDFTL
)

func (m MappingScheme) String() string {
	if m == MapDFTL {
		return "dftl"
	}
	return "pagemap"
}

// Config assembles a controller. Zero fields get sane defaults from
// (*Config).WithDefaults; Validate rejects inconsistent combinations.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing
	Features flash.Features

	// Mapping selects the FTL scheme; DFTL additionally needs CMTEntries
	// and ReservedTransBlocks (per LUN).
	Mapping             MappingScheme
	CMTEntries          int
	ReservedTransBlocks int

	// Overprovision is the fraction of data-region pages withheld from the
	// logical address space (0.05 .. 0.5 typical).
	Overprovision float64

	// GCPolicy selects victims; GCGreediness is the free-blocks-per-LUN
	// target that triggers collection.
	GCPolicy     gc.VictimPolicy
	GCGreediness int
	// GCCopyback migrates GC pages with copyback when the chip supports it.
	GCCopyback bool

	// WL configures wear leveling; WL.Dynamic also flips the block manager
	// into age-aware allocation.
	WL wl.Config

	// Policy orders the controller's single IO queue; Alloc places writes.
	Policy sched.Policy
	Alloc  sched.Allocator

	// Detector classifies written pages hot/cold for stream separation.
	Detector hotcold.Detector
	// OpenInterface honors request tags and bus hints; when false the
	// controller behaves as a plain block device (the locked GUI mode).
	OpenInterface bool

	// WriteBuffer enables a battery-backed-RAM write buffer of the given
	// page capacity (0 disables it).
	WriteBufferPages int
	// WriteBufferLatency is the RAM store latency seen by buffered writes.
	WriteBufferLatency sim.Duration

	// RAMBytes and SafeRAMBytes are memory-manager budgets; zero means
	// unconstrained.
	RAMBytes     int64
	SafeRAMBytes int64

	// BadBlockFraction retires this fraction of data-region blocks at
	// manufacture time (factory bad blocks), deterministically from
	// BadBlockSeed. Retired blocks never hold data; the usable
	// overprovisioning shrinks accordingly.
	BadBlockFraction float64
	BadBlockSeed     uint64

	// Fault, when non-nil, injects program/erase failures and grown bad
	// blocks at runtime, confined to the data region like factory bad
	// blocks. The controller owns recovery: failed writes relocate to a new
	// frontier, failed-erase victims retire, and live pages migrate off
	// blocks that grow bad under them. Nil disables injection at zero cost.
	Fault fault.Model

	// OnComplete delivers finished application requests to the OS layer.
	OnComplete func(*iface.Request)
}

// WithDefaults fills every zero field that has a default: the stack's one
// statement of them, which spec.FromConfig applies too so that cache keys
// describe exactly what runs.
func (c *Config) WithDefaults() {
	if c.Timing.Cmd == 0 {
		c.Timing = flash.TimingSLC()
	}
	if c.GCPolicy == nil {
		c.GCPolicy = gc.Greedy{}
	}
	if c.GCGreediness == 0 {
		c.GCGreediness = 2
	}
	if c.Policy == nil {
		c.Policy = &sched.FIFO{}
	}
	if c.Alloc == nil {
		c.Alloc = sched.LeastLoaded{}
	}
	if c.Detector == nil {
		c.Detector = hotcold.None{}
	}
	if c.Mapping == MapDFTL {
		if c.CMTEntries == 0 {
			c.CMTEntries = 4096
		}
		if c.ReservedTransBlocks == 0 {
			c.ReservedTransBlocks = 2
		}
	}
	if c.WriteBufferPages > 0 && c.WriteBufferLatency == 0 {
		c.WriteBufferLatency = 5 * sim.Microsecond
	}
	if c.WL.CheckInterval == 0 {
		c.WL.CheckInterval = wl.DefaultConfig().CheckInterval
	}
	if c.Overprovision == 0 {
		c.Overprovision = 0.1
	}
}

// Validate reports configuration errors after defaults are applied.
func (c *Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.Overprovision < 0.01 || c.Overprovision > 0.9 {
		return fmt.Errorf("%w: overprovision %.2f outside [0.01, 0.9]", ErrConfig, c.Overprovision)
	}
	if c.GCGreediness < 1 {
		return fmt.Errorf("%w: GC greediness %d, must be >= 1", ErrConfig, c.GCGreediness)
	}
	if c.Mapping == MapDFTL && c.ReservedTransBlocks < 2 {
		return fmt.Errorf("%w: DFTL needs >= 2 reserved translation blocks per LUN, got %d", ErrConfig, c.ReservedTransBlocks)
	}
	if c.Mapping == MapDFTL && c.ReservedTransBlocks >= c.Geometry.BlocksPerLUN/2 {
		return fmt.Errorf("%w: %d translation blocks per LUN leaves too little data region", ErrConfig, c.ReservedTransBlocks)
	}
	if c.GCCopyback && !c.Features.Copyback {
		return fmt.Errorf("%w: GCCopyback requires the copyback chip feature", ErrConfig)
	}
	if c.BadBlockFraction < 0 || c.BadBlockFraction > 0.5 {
		return fmt.Errorf("%w: bad-block fraction %.2f outside [0, 0.5]", ErrConfig, c.BadBlockFraction)
	}
	return nil
}

// opKind is what an internal queue entry actually does on the array.
type opKind int

const (
	opData opKind = iota
	opTransRead
	opTransWrite
	opTransErase
	opGCRead
	opGCWrite
	opGCCopyback
	opGCErase
	opWLRead
	opWLWrite
)

// reqState is the controller-private state of a queued request. It lives in
// the request's opaque Ctl slot — not in a lookup table — so the dispatch hot
// path reaches it with one pointer load. States are pooled: finish returns
// them to the controller's freelist and Submit/newInternal reuse them.
type reqState struct {
	kind     opKind
	blocked  bool // waiting on a predecessor in a dependency chain
	accessd  bool // mapper.Access already performed
	errored  bool // completed without touching flash (unmapped read)
	buffered bool // write absorbed by the battery-backed buffer
	refire   bool // program failed by injection; re-queue instead of finishing
	busyLUN  int  // LUN whose inflight slot this request holds; -1 when none

	// Readiness caches, validated against the controller epochs. Evaluate
	// may be asked about a queued request on every pop, so it must not
	// repeat mapping lookups or temperature classification whose inputs
	// cannot have changed since the last one.
	ppaEpoch    uint64 // mapEpoch when ppa/mapped were cached
	mapped      bool
	ppa         flash.PPA
	streamEpoch uint64 // tempEpoch when stream was cached
	stream      ftl.Stream
	waitClass   int32 // dispatch wait-class this request is parked under; -1 when none
	waitRead    bool  // parked read indexed in readWait for retarget wake-ups

	// Completion bookkeeping hoisted out of the per-completion path: the
	// watched-thread sink is resolved once at submit and revalidated with
	// one epoch compare in finish, instead of a map lookup per completion.
	tsink      *stats.ThreadStats
	tsinkEpoch uint64 // stats.SinkEpoch when tsink was cached

	next  []*iface.Request // unblocked when this request completes
	trans ftl.TransOp      // payload for opTrans*
	src   flash.PPA        // explicit source page (GC/WL migrations)
	run   *gcRun           // owning GC/WL run, if any
}

// writeMemoEntry caches "some idle LUN can allocate for this stream" per
// write stream, valid for one writeEpoch.
type writeMemoEntry struct {
	epoch uint64
	ok    bool
}

// gcRun tracks one in-flight collection or wear-leveling migration.
type gcRun struct {
	victim    flash.BlockID
	pending   int  // migration pairs not yet finished
	erased    bool // erase issued (or run reached its terminal state)
	isWL      bool
	condemn   bool // relocation off a grown-bad block; never erased
	failed    bool // the victim erase was failed by injection; block retired
	collector *Controller
}

// Counters aggregates controller-level totals for reports.
type Counters struct {
	AppReads        uint64
	AppWrites       uint64
	AppTrims        uint64
	UnmappedReads   uint64
	GCMigratedPages uint64
	GCErases        uint64
	WLMigratedPages uint64
	BufferedWrites  uint64
	BufferStalls    uint64
}

// Reliability aggregates fault-injection recovery totals. It is a separate
// struct from Counters so the frozen snapshot encoding of Counters stays
// untouched; reports print it only when faults actually fired.
type Reliability struct {
	// Retries counts writes re-issued after an injected program failure
	// burned their page.
	Retries uint64
	// Relocations counts live pages migrated off blocks that grew bad under
	// an in-flight write frontier.
	Relocations uint64
	// EraseFailures counts injected erase failures; each retires its block.
	EraseFailures uint64
	// GrownBadBlocks counts blocks retired mid-run by the fault model, from
	// both grown-bad program failures and erase failures.
	GrownBadBlocks uint64
}

// ErrDeviceWornOut reports that runtime block retirement has exhausted a
// LUN's free pool: queued writes can never be placed and the device has
// reached end of life. Experiments surface it instead of a generic stall.
var ErrDeviceWornOut = errors.New("device worn out: block retirement exhausted the free pool")

// Errors wrapped by the controller's exported API, per the typed-error
// contract: callers match with errors.Is rather than message text.
var (
	// ErrConfig wraps every Config.Validate failure.
	ErrConfig = errors.New("controller: invalid configuration")
	// ErrMemoryBudget wraps every rejected memory reservation.
	ErrMemoryBudget = errors.New("controller: memory reservation rejected")
	// ErrStateMismatch wraps every mismatch between a snapshot and the
	// configuration it is restored into.
	ErrStateMismatch = errors.New("controller: snapshot does not match configuration")
	// ErrSnapshotUnsupported marks mappers that cannot snapshot.
	ErrSnapshotUnsupported = errors.New("controller: mapper does not support snapshots")
)

// Controller is the simulated SSD. Create with New; drive it by Submit-ing
// requests and running the shared engine.
type Controller struct {
	cfg    Config
	eng    *sim.Engine
	array  *flash.Array
	bm     *ftl.BlockManager
	mapper ftl.Mapper
	gc     *gc.Collector
	lvl    *wl.Leveler
	bus    *iface.Bus
	stats  *stats.Collector
	mem    *MemoryManager

	inflight     []bool // one operation per LUN at a time
	gcActive     []bool // per LUN: a GC/WL run owns the LUN's migration budget
	nextID       uint64
	dispPend     bool
	counters     Counters
	reliability  Reliability
	condemned    []flash.BlockID // grown-bad blocks awaiting survivor relocation
	logical      int             // exported logical pages
	completions  uint64
	opsSinceScan uint64
	wlScanArmed  bool
	wlScanEv     *sim.Event       // armed static-WL scan timer (cancelled on restore)
	deferred     []*iface.Request // writes an allocator refused; retried after the next completion
	lastTrans    *iface.Request   // tail of the most recently planned translation chain

	// Hot-path machinery: pooled request states, a scratch allocator view,
	// and callbacks bound once so per-IO scheduling allocates nothing.
	statePool    []*reqState
	reqPool      []*iface.Request // recycled controller-internal requests
	views        []sched.LUNView
	detectorLive bool // detector state can change classifications (not hotcold.None)
	dispatchFn   func(any)
	ioDoneFn     func(any)
	flushFn      func(any)

	// Readiness epochs. Every mutation of a readiness input bumps the
	// matching epoch, so cached Evaluate inputs are reused exactly while
	// nothing they depend on has changed — dispatch order is identical to
	// recomputing from scratch, without the per-scan map and LUN traffic.
	mapEpoch   uint64           // mapper.Map/Unmap calls
	tempEpoch  uint64           // temperature hints, WL-cold set, detector state
	writeEpoch uint64           // inflight toggles and block alloc/release
	writeMemo  []writeMemoEntry // per-stream write readiness, one writeEpoch long

	// Dispatch-gate machinery. A request that cannot run is almost
	// always waiting on exactly one thing: its target LUN going idle
	// (reads, GC/WL/translation ops) or a write stream regaining
	// allocatable space (application writes). The controller exposes that
	// structure to the policy as sched.Gate: Evaluate names the
	// wait-class of a failed request, and ClassToken hands out a token per
	// class that changes only when the class's blocking condition may have
	// cleared — lunEpoch[L] for LUN classes (bumped when L's in-flight
	// operation completes), writeEpoch+tempEpoch for stream classes. The
	// policy parks whole classes off the scan path and re-examines only
	// class heads whose token moved, so dispatch cost no longer grows with
	// the number of queued-but-unrunnable requests.
	//
	// readWait indexes parked reads by LPN: a remap or unmap of a waiting
	// read's page can change (or clear) its target LUN without that LUN
	// ever completing work, so the mapping mutation itself wakes the read.
	//
	// busyLUNs and lunFree feed Saturated: with every LUN busy, only a
	// queued request that needs no LUN can start. lunFree counts those
	// conservatively — every queued opData read (it may be unmapped) and
	// trim, blocked or not — from Submit/enqueueTransChain to executeData.
	lunEpoch []uint64
	readWait map[iface.LPN][]*iface.Request
	busyLUNs int
	lunFree  int

	// Open-interface state fed by bus hints.
	threadPrio map[int]iface.Priority
	locality   map[iface.LPN]int
	tempHints  map[iface.LPN]iface.Temperature
	wlCold     map[iface.LPN]struct{} // pages last moved by static WL

	buffer *writeBuffer
}

// New builds the controller and its substrates on the given engine and bus,
// over an erased flash array and an empty mapping table.
func New(eng *sim.Engine, bus *iface.Bus, col *stats.Collector, cfg Config) (*Controller, error) {
	return Restore(eng, bus, col, cfg, nil)
}

// Restore is New continuing from a snapshot (nil: an erased device). The
// configuration must be structurally compatible with the snapshot's: same
// geometry, mapping scheme (and a CMT at least as large), translation
// reservation and factory bad blocks. Policy-level knobs (scheduler,
// allocator, GC greediness, queue depth) may differ — that is the point of
// prepare-once-restore-many sweeps. The page-state column and the page map's
// two columns stay shared with st, and with every controller restored from
// it, until this one first writes to them: st must not be modified again.
// Call Kick once the engine clock is restored, so GC sees a changed target.
func Restore(eng *sim.Engine, bus *iface.Bus, col *stats.Collector, cfg Config, st *State) (*Controller, error) {
	cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo := cfg.Geometry
	var array *flash.Array
	var err error
	if st == nil {
		array = flash.NewArray(geo, cfg.Timing, cfg.Features)
	} else if array, err = flash.RestoreArray(geo, cfg.Timing, cfg.Features, st.Array); err != nil {
		return nil, err
	}
	reserved := 0
	if cfg.Mapping == MapDFTL {
		reserved = cfg.ReservedTransBlocks
	}
	// Exported capacity follows from the configuration alone (data blocks
	// less factory bad blocks): a snapshot's array may carry grown ones too.
	usable := geo.LUNs() * (geo.BlocksPerLUN - reserved)
	if cfg.BadBlockFraction > 0 {
		// Factory bad blocks, confined to the data region: the translation
		// ring assumes its reserved blocks are usable. A snapshot has them.
		rng := sim.NewRNG(cfg.BadBlockSeed + 1)
		for lun := 0; lun < geo.LUNs(); lun++ {
			for blk := reserved; blk < geo.BlocksPerLUN; blk++ {
				if rng.Float64() < cfg.BadBlockFraction {
					usable--
					if st == nil {
						array.MarkBad(flash.BlockID{LUN: lun, Block: blk})
					}
				}
			}
		}
	}
	if cfg.Fault != nil {
		// Runtime faults share the factory bad-block confinement: the
		// translation ring's reserved blocks stay exempt.
		array.SetInjector(cfg.Fault, reserved)
	}
	bm := ftl.NewBlockManager(array, reserved, cfg.GCGreediness, cfg.WL.Dynamic)
	logical := int(float64(usable*geo.PagesPerBlock) * (1 - cfg.Overprovision))
	mapper, err := buildMapper(cfg, logical, st)
	if err != nil {
		return nil, err
	}

	c := &Controller{
		cfg:        cfg,
		eng:        eng,
		array:      array,
		bm:         bm,
		mapper:     mapper,
		gc:         gc.NewCollector(bm, cfg.GCPolicy, cfg.GCGreediness),
		lvl:        wl.NewLeveler(bm, cfg.WL),
		bus:        bus,
		stats:      col,
		inflight:   make([]bool, cfg.Geometry.LUNs()),
		gcActive:   make([]bool, cfg.Geometry.LUNs()),
		logical:    logical,
		threadPrio: make(map[int]iface.Priority),
		locality:   make(map[iface.LPN]int),
		tempHints:  make(map[iface.LPN]iface.Temperature),
		wlCold:     make(map[iface.LPN]struct{}),

		views:      make([]sched.LUNView, cfg.Geometry.LUNs()),
		writeMemo:  make([]writeMemoEntry, ftl.NumStreams),
		mapEpoch:   1,
		tempEpoch:  1,
		writeEpoch: 1,
		lunEpoch:   make([]uint64, cfg.Geometry.LUNs()),
		readWait:   make(map[iface.LPN][]*iface.Request),
	}
	if _, none := cfg.Detector.(hotcold.None); !none {
		c.detectorLive = true
	}
	c.dispatchFn = func(any) { c.dispPend = false; c.dispatch() }
	c.ioDoneFn = c.ioDone
	c.flushFn = c.flushDone
	c.mem = NewMemoryManager(cfg.RAMBytes, cfg.SafeRAMBytes)
	if err := c.mem.Reserve("mapping", mapper.RAMBytes(), false); err != nil {
		return nil, err
	}
	if cfg.WriteBufferPages > 0 {
		c.buffer = newWriteBuffer(cfg.WriteBufferPages)
		bufBytes := int64(cfg.WriteBufferPages) * int64(cfg.Geometry.PageSize)
		if err := c.mem.Reserve("write-buffer", bufBytes, true); err != nil {
			return nil, err
		}
	}
	c.subscribe()
	if st != nil {
		// No static-WL scan is armed: the first post-restore submission arms
		// it, exactly as it would after the device went quiet.
		if err := c.restore(st); err != nil {
			return nil, err
		}
	} else if cfg.WL.Static {
		c.scheduleWLScan()
	}
	return c, nil
}

// buildMapper returns the configured scheme over an empty page map or the
// snapshot's, adopted (a DFTL's cache, directory and ring follow in restore).
func buildMapper(cfg Config, logical int, st *State) (ftl.Mapper, error) {
	var pm *ftl.PageMap
	if st == nil {
		pm = ftl.NewPageMap(cfg.Geometry, logical)
	} else {
		pms := st.PageMap
		if cfg.Mapping == MapDFTL && st.DFTL != nil {
			pms = &st.DFTL.Truth
		}
		if pms == nil || (cfg.Mapping == MapDFTL) != (st.DFTL != nil) {
			return nil, fmt.Errorf("%w: snapshot has no %v state but config maps with it", ErrStateMismatch, cfg.Mapping)
		}
		var err error
		if pm, err = ftl.RestorePageMap(cfg.Geometry, logical, *pms); err != nil {
			return nil, err
		}
	}
	if cfg.Mapping == MapDFTL {
		return ftl.NewDFTLOver(pm, cfg.CMTEntries, cfg.ReservedTransBlocks), nil
	}
	return pm, nil
}

// LogicalPages returns the exported logical capacity in pages.
func (c *Controller) LogicalPages() int { return c.logical }

// Array exposes the flash array for statistics and tests.
func (c *Controller) Array() *flash.Array { return c.array }

// Mapper exposes the mapping scheme for statistics and tests.
func (c *Controller) Mapper() ftl.Mapper { return c.mapper }

// BlockManager exposes space accounting for statistics and tests.
func (c *Controller) BlockManager() *ftl.BlockManager { return c.bm }

// Counters returns controller-level totals.
func (c *Controller) Counters() Counters { return c.counters }

// Reliability returns fault-injection recovery totals.
func (c *Controller) Reliability() Reliability { return c.reliability }

// Health explains a stalled controller. When the engine drains with requests
// still queued, deferred, or a migration run stuck, a worn-out verdict means
// runtime retirement emptied a free pool out from under the write path. It
// returns nil when the controller holds no stuck work.
func (c *Controller) Health() error {
	stuck := c.cfg.Policy.Len() > 0 || len(c.deferred) > 0 || len(c.condemned) > 0
	for _, active := range c.gcActive {
		if active {
			stuck = true
		}
	}
	if !stuck {
		return nil
	}
	for lun := range c.inflight {
		if c.bm.FreeCount(lun) == 0 {
			return ErrDeviceWornOut
		}
	}
	return nil
}

// Memory returns the memory manager's accounting.
func (c *Controller) Memory() *MemoryManager { return c.mem }

// GCCollector exposes the garbage collector for reports.
func (c *Controller) GCCollector() *gc.Collector { return c.gc }

// Leveler exposes the wear leveler for reports.
func (c *Controller) Leveler() *wl.Leveler { return c.lvl }

// QueueLen returns the number of requests waiting in the scheduler queue.
func (c *Controller) QueueLen() int { return c.cfg.Policy.Len() }

// WriteAmplification returns flash page writes (data + GC + WL + mapping)
// divided by application page writes. It is the paper's measure of GC and
// metadata overhead.
func (c *Controller) WriteAmplification() float64 {
	if c.counters.AppWrites == 0 {
		return 0
	}
	flashWrites := c.array.Counters().Writes + c.array.Counters().Copybacks
	return float64(flashWrites) / float64(c.counters.AppWrites)
}

// subscribe wires the open-interface hints. A locked bus never delivers, so
// block-device mode needs no special casing here.
func (c *Controller) subscribe() {
	c.bus.Subscribe("priority", func(m iface.Message) {
		h := m.(iface.PriorityHint)
		c.threadPrio[h.Thread] = h.Priority
	})
	c.bus.Subscribe("locality", func(m iface.Message) {
		h := m.(iface.LocalityHint)
		for _, lpn := range h.Pages {
			c.locality[lpn] = h.Group
		}
	})
	c.bus.Subscribe("temperature", func(m iface.Message) {
		h := m.(iface.TemperatureHint)
		for lpn := h.From; lpn < h.To; lpn++ {
			c.tempHints[lpn] = h.Temperature
		}
		c.tempEpoch++
	})
}

// Submit accepts a request from the OS layer. It implements the osched
// Device interface.
func (c *Controller) Submit(r *iface.Request) {
	if r.Issued == 0 {
		r.Issued = c.eng.Now()
	}
	if !c.cfg.OpenInterface {
		r.Tags = iface.Tags{} // block-device mode: hints do not exist
	} else {
		c.applyHints(r)
		if r.Tags.Temperature != iface.TempUnknown {
			// Remember per-page temperature: GC consults it when choosing a
			// migration stream long after the tagged write completed. Cached
			// streams stay valid unless the hint actually changes.
			if old, ok := c.tempHints[r.LPN]; !ok || old != r.Tags.Temperature {
				c.tempHints[r.LPN] = r.Tags.Temperature
				c.tempEpoch++
			}
		}
	}
	if r.Source == iface.SourceApp {
		switch r.Type {
		case iface.Read:
			c.counters.AppReads++
		case iface.Write:
			c.counters.AppWrites++
		case iface.Trim:
			c.counters.AppTrims++
		}
	}
	c.scheduleWLScan() // re-arm the static WL scan if it went quiet
	st := c.newState(opData)
	if r.Source == iface.SourceApp {
		st.tsink = c.stats.ThreadSink(r.Thread)
		st.tsinkEpoch = c.stats.SinkEpoch()
	}
	attach(r, st)
	if r.Type == iface.Write && r.Source == iface.SourceApp && c.buffer != nil {
		c.counters.BufferedWrites++
		c.bufferWrite(r)
		return
	}
	if r.Type != iface.Write {
		c.lunFree++
	}
	c.cfg.Policy.Push(r)
	c.scheduleDispatch()
}

// applyHints folds previously received bus hints into the request's tags,
// without overriding anything the OS set explicitly on this request.
func (c *Controller) applyHints(r *iface.Request) {
	if r.Tags.Priority == iface.PriorityNormal {
		if p, ok := c.threadPrio[r.Thread]; ok {
			r.Tags.Priority = p
		}
	}
	if r.Tags.Locality == 0 {
		if g, ok := c.locality[r.LPN]; ok {
			r.Tags.Locality = g
		}
	}
	if r.Tags.Temperature == iface.TempUnknown {
		if tmp, ok := c.tempHints[r.LPN]; ok {
			r.Tags.Temperature = tmp
		}
	}
}

// newState takes a request state from the pool (or allocates one) and
// initializes it for the given operation kind.
//
//eagletree:hotpath
func (c *Controller) newState(kind opKind) *reqState {
	var st *reqState
	if n := len(c.statePool); n > 0 {
		st = c.statePool[n-1]
		c.statePool = c.statePool[:n-1]
		next := st.next[:0]
		*st = reqState{next: next}
	} else {
		st = &reqState{}
	}
	st.kind = kind
	st.busyLUN = -1
	st.waitClass = -1
	return st
}

// freeState returns a state to the pool. The caller must have detached it
// from its request (r.Ctl = nil) first.
//
//eagletree:hotpath
func (c *Controller) freeState(st *reqState) {
	for i := range st.next {
		st.next[i] = nil // do not retain completed requests
	}
	st.run = nil
	c.statePool = append(c.statePool, st)
}

// stateOf returns the controller state attached to a request, or nil.
//
//eagletree:hotpath
func stateOf(r *iface.Request) *reqState {
	return (*reqState)(r.Ctl)
}

// attach binds a state to a request.
//
//eagletree:hotpath
func attach(r *iface.Request, st *reqState) {
	r.Ctl = unsafe.Pointer(st)
}

// scheduleDispatch coalesces dispatch work to the tail of the current event.
//
//eagletree:hotpath
func (c *Controller) scheduleDispatch() {
	if c.dispPend {
		return
	}
	c.dispPend = true
	c.eng.ScheduleCall(c.eng.Now(), c.dispatchFn, nil)
}

// dispatch drains the policy queue as far as hardware and space allow: the
// policy orders, the controller (as its sched.Gate) says what can start.
//
//eagletree:hotpath
func (c *Controller) dispatch() {
	now := c.eng.Now()
	for {
		r := c.cfg.Policy.PopClassed(now, c)
		if r == nil {
			return
		}
		c.execute(r)
	}
}

// lookup returns the request's current physical page, caching the mapper
// lookup until the next mapping mutation.
//
//eagletree:hotpath
func (c *Controller) lookup(r *iface.Request, st *reqState) (flash.PPA, bool) {
	if st.ppaEpoch != c.mapEpoch {
		st.ppa, st.mapped = c.mapper.Lookup(r.LPN)
		st.ppaEpoch = c.mapEpoch
	}
	return st.ppa, st.mapped
}

// canRunWrite reports whether some idle LUN could take a write on the
// stream. The scan result is memoized per stream for the current writeEpoch:
// with many writes queued, one dispatch scan pays the LUN loop once per
// stream instead of once per request.
//
//eagletree:hotpath
func (c *Controller) canRunWrite(stream ftl.Stream) bool {
	// writeMemo is sized ftl.NumStreams and LocalityStream clamps groups
	// into range, so the index cannot overflow.
	m := &c.writeMemo[stream]
	if m.epoch == c.writeEpoch {
		return m.ok
	}
	ok := false
	for lun := range c.inflight {
		if !c.inflight[lun] && c.bm.CanAlloc(lun, stream) {
			ok = true
			break
		}
	}
	*m = writeMemoEntry{epoch: c.writeEpoch, ok: ok}
	return ok
}

// canRunAppWrite reports whether some idle LUN could take an untagged
// application write on any stream it can be assigned (Default, Hot or Cold).
//
//eagletree:hotpath
func (c *Controller) canRunAppWrite() bool {
	return c.canRunWrite(ftl.StreamDefault) || c.canRunWrite(ftl.StreamHot) || c.canRunWrite(ftl.StreamCold)
}

// capacityClass is the app-write-capacity wait-class, numbered after the LUN
// and stream classes.
//
//eagletree:hotpath
func (c *Controller) capacityClass() int { return len(c.inflight) + ftl.NumStreams }

// Saturated implements sched.SaturationGate: every LUN is busy and nothing
// queued can start without one, so Evaluate would refuse the whole queue —
// LUN-bound operations and migration writes need their LUN idle, writes need
// some idle LUN, and no unmapped read or trim is waiting.
//
//eagletree:hotpath
func (c *Controller) Saturated() bool {
	return c.busyLUNs == len(c.inflight) && c.lunFree == 0
}

// Evaluate implements sched.Gate: the single statement of whether a request
// could be dispatched right now. A read needs its target LUN idle (an
// unmapped read completes immediately and needs none), a write needs some
// idle LUN with room on its stream, a trim needs nothing. Migration writes
// stay on the victim's LUN: the read already landed there and cross-LUN
// migration would need a channel hop the paper's GC does not model. On
// failure it names the wait-class the request should park under: the target
// LUN's index for LUN-bound operations (migration writes included, while it
// is their LUN that is busy), LUNs+stream for application writes whose
// stream has no allocatable idle LUN, the app-write-capacity class under a
// live detector, or -1 when the failure is not class-wide (a migration write
// on an idle LUN without room, a stream-specific failure under a live
// detector).
//
// Parking is sound because each class names a necessary condition shared by
// every member: a LUN class waits on inflight[L], which only ioDone clears
// (and that bumps lunEpoch[L]); a stream class waits on canRunWrite(s), which
// is constant while writeEpoch stands still, under streams that are constant
// while tempEpoch stands still; the capacity class waits on canRunAppWrite,
// constant while writeEpoch stands still, and an untagged app write belongs
// to it whatever stream the detector assigns next. Reads are additionally
// indexed in readWait from their first refusal until executeData dispatches
// them: a mapping change can retarget a parked read without either token
// moving, so remap/unmap wake the affected LPN's waiters directly. A yes
// changes nothing — the policy may ask about many candidates and pop one, and
// a sweep that leaves a class at its first refusal never asks the rest.
//
//eagletree:hotpath
func (c *Controller) Evaluate(r *iface.Request) (bool, int) {
	st := stateOf(r)
	if st == nil || st.blocked {
		return false, -1
	}
	switch st.kind {
	case opTransRead, opTransWrite:
		if lun := st.trans.PPA.LUN; c.inflight[lun] {
			return false, lun
		}
		return true, -1
	case opTransErase:
		if lun := st.trans.Block.LUN; c.inflight[lun] {
			return false, lun
		}
		return true, -1
	case opGCRead, opWLRead, opGCCopyback, opGCErase:
		if lun := st.src.LUN; c.inflight[lun] {
			return false, lun
		}
		return true, -1
	case opGCWrite, opWLWrite:
		lun := st.src.LUN
		if c.inflight[lun] {
			return false, lun
		}
		return c.bm.CanAlloc(lun, c.streamOf(r, st)), -1
	}
	switch r.Type {
	case iface.Read:
		ppa, mapped := c.lookup(r, st)
		if !mapped || !c.inflight[ppa.LUN] {
			// A yes is not a dispatch: a read the policy asks about and
			// leaves queued stays indexed until executeData takes it.
			return true, -1
		}
		st.waitClass = int32(ppa.LUN)
		if !st.waitRead {
			st.waitRead = true
			c.readWait[r.LPN] = append(c.readWait[r.LPN], r)
		}
		return false, ppa.LUN
	case iface.Write:
		if c.detectorLive && r.Tags.Locality == 0 && !c.canRunAppWrite() {
			// No idle LUN has room for any stream the detector could name:
			// park without asking it (streamOf would probe its filters).
			return false, c.capacityClass()
		}
		s := c.streamOf(r, st)
		if c.canRunWrite(s) {
			return true, -1
		}
		if c.detectorLive {
			// A live detector reclassifies streams on every recorded write;
			// writes parked by stream would be flushed for re-classification
			// just as often — keep stream-specific failures on the scan path.
			return false, -1
		}
		return false, len(c.inflight) + int(s)
	default: // Trim
		return true, -1
	}
}

// ClassToken implements sched.Gate: the wake token for a wait-class. LUN
// classes move when the LUN's in-flight operation completes; the capacity
// class moves with write capacity (writeEpoch); stream classes move when
// write capacity or stream assignment (tempEpoch) may have changed. Both
// summands are monotonic, so the sum changes exactly when either input does.
//
//eagletree:hotpath
func (c *Controller) ClassToken(class int) uint64 {
	switch {
	case class < len(c.lunEpoch):
		return c.lunEpoch[class]
	case class == c.capacityClass():
		return c.writeEpoch
	}
	return c.writeEpoch + c.tempEpoch
}

// ClassStable implements sched.Gate: the membership-validity token. LUN
// classes never go stale — an operation's target LUN is fixed for its
// queued lifetime (reads that get remapped are woken individually through
// readWait), and neither does the capacity class, whose test covers every
// stream a member could move to. Stream classes go stale when stream
// assignment inputs change: temperature hints, the WL-cold set, or detector
// state, all tracked by tempEpoch.
//
//eagletree:hotpath
func (c *Controller) ClassStable(class int) uint64 {
	if class < len(c.lunEpoch) || class == c.capacityClass() {
		return 0
	}
	return c.tempEpoch
}

// wakeRead releases every parked read waiting on the LPN back into the scan
// path: the mapping just changed, so the read's target LUN (or its very
// mappedness) is no longer what it parked under.
//
//eagletree:hotpath
func (c *Controller) wakeRead(lpn iface.LPN) {
	if len(c.readWait) == 0 {
		return
	}
	lst, ok := c.readWait[lpn]
	if !ok {
		return
	}
	delete(c.readWait, lpn)
	for i, r := range lst {
		lst[i] = nil
		st := stateOf(r)
		if st == nil {
			continue
		}
		st.waitRead = false
		c.cfg.Policy.WakeRequest(r, int(st.waitClass))
		st.waitClass = -1
	}
}

// readWaitDel removes a read that executeData is dispatching from the readWait
// index.
//
//eagletree:hotpath
func (c *Controller) readWaitDel(r *iface.Request, st *reqState) {
	st.waitRead = false
	st.waitClass = -1
	lst := c.readWait[r.LPN]
	for i := range lst {
		if lst[i] == r {
			lst[i] = lst[len(lst)-1]
			lst[len(lst)-1] = nil
			lst = lst[:len(lst)-1]
			break
		}
	}
	if len(lst) == 0 {
		delete(c.readWait, r.LPN)
	} else {
		c.readWait[r.LPN] = lst
	}
}
