package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/fabric"
	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/gc"
	"eagletree/internal/hotcold"
	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/query"
	"eagletree/internal/resultstore"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/snapshot"
	"eagletree/internal/spec"
	"eagletree/internal/stats"
	"eagletree/internal/trace"
	"eagletree/internal/wl"
	"eagletree/internal/workload"
)

// A kernel is a fixed, seeded operation sequence against one layer's public
// API. build prepares the layer outside the clock and returns the timed
// function and how many units (operations, rows or bytes) it processes; the
// metric's unit decides how elapsed time and units combine. Each kernel
// predicts a saving of Δns × the matching count from the counts group;
// anything larger seen end to end is not that layer's doing.
type kernel struct {
	name  string
	ops   int // units per repetition at full size
	build func(k *kernelEnv, n int) (run func(), units float64)
}

// kernelEnv holds what kernels share: the seed, an aged device for the
// layers that need one, and a slice of result rows.
type kernelEnv struct {
	seed    uint64
	cfg     core.Config           // the warm_restore base configuration
	aged    []byte                // encoded snapshot of the aged warm_restore device
	state   *snapshot.DeviceState // aged, decoded
	rows    []resultstore.Row
	dir     string
	gridDoc []byte
}

const kernelReps = 3

// agedState returns the warm_restore device, aged exactly as the workload
// ages it, from the direct-drive state directory when a traced warm pass
// already left it there.
func agedState(e *env) (core.Config, []byte, error) {
	doc := warmDoc(e.sz, e.seed)
	cfg, err := doc.Base.Resolve()
	if err != nil {
		return cfg, nil, err
	}
	pcfg := prepConfig(cfg, cfg)
	key, err := prepKey(*doc.Prep, pcfg)
	if err != nil {
		return cfg, nil, err
	}
	dir := filepath.Join(e.tmp, driveStates)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cfg, nil, err
	}
	d := &driver{c: &counts{}, seed: e.seed, dir: dir, states: map[string][]byte{}}
	data, err := d.prepared(key, pcfg, *doc.Prep)
	return cfg, data, err
}

// runKernels times every kernel and adds its metric to m, with allocations
// per unit beside it in allocs.
func runKernels(e *env, m, allocs map[string]float64) error {
	cfg, aged, err := agedState(e)
	if err != nil {
		return err
	}
	state, err := snapshot.Decode(aged)
	if err != nil {
		return err
	}
	gridJSON, err := spec.Encode(gridDoc(e.sz, e.seed))
	if err != nil {
		return err
	}
	small := e.sz
	small.corpusExperiments, small.corpusSeeds = 4, 20 // 20 000 rows at full size
	if e.sz.kernelOps > 0 {
		small = e.sz
	}
	k := &kernelEnv{seed: e.seed, cfg: cfg, aged: aged, state: state,
		rows: makeCorpus(small, e.seed, e.tmp).rows, dir: e.tmp, gridDoc: gridJSON}

	units := map[string]string{}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	var ms runtime.MemStats
	for _, kn := range kernels {
		n := kn.ops
		if e.sz.kernelOps > 0 && n > e.sz.kernelOps {
			n = e.sz.kernelOps
		}
		var vals, mallocs []float64
		for rep := 0; rep < kernelReps; rep++ {
			run, u := kn.build(k, n)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			begin := time.Now()
			run()
			ns := float64(time.Since(begin))
			runtime.ReadMemStats(&ms)
			mallocs = append(mallocs, float64(ms.Mallocs-before)/u)
			switch unit := units[kn.name]; unit {
			case "ns":
				vals = append(vals, ns/u)
			case "us":
				vals = append(vals, ns/u/1e3)
			case "ms":
				vals = append(vals, ns/u/1e6)
			case "MB/s":
				vals = append(vals, u/1e6/(ns/1e9))
			default:
				return fmt.Errorf("bench: kernel %s has no unit rule for %q", kn.name, unit)
			}
		}
		m[kn.name] = median(vals)
		allocs[kn.name] = median(mallocs)
	}
	return nil
}

// kernelGeo is the fresh device the flash and FTL kernels write from empty:
// 4 LUNs × 256 blocks × 64 pages.
var kernelGeo = flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 256, PagesPerBlock: 64, PageSize: 4096}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: kernel: %v", err))
	}
}

// filledArray programs the first n pages of a fresh array, LUN-interleaved
// and in NAND order, and returns them.
func filledArray(n int) (*flash.Array, []flash.PPA) {
	arr := flash.NewArray(kernelGeo, flash.TimingSLC(), flash.Features{})
	ppas := pageOrder(n)
	for _, p := range ppas {
		_, err := arr.ScheduleWrite(p, 0)
		must(err)
	}
	return arr, ppas
}

// pageOrder lists the first n pages block by block, rotating over LUNs.
func pageOrder(n int) []flash.PPA {
	if max := kernelGeo.Pages(); n > max {
		n = max
	}
	ppas := make([]flash.PPA, 0, n)
	for blk := 0; len(ppas) < n; blk++ {
		for lun := 0; lun < kernelGeo.LUNs() && len(ppas) < n; lun++ {
			for pg := 0; pg < kernelGeo.PagesPerBlock && len(ppas) < n; pg++ {
				ppas = append(ppas, flash.PPA{LUN: lun, Block: blk, Page: pg})
			}
		}
	}
	return ppas
}

// restored returns a fresh stack on the aged device.
func (k *kernelEnv) restored() *core.Stack {
	st, err := core.Restore(k.cfg, k.state)
	must(err)
	st.MarkMeasurement()
	return st
}

// requests builds n queued-IO descriptors with seeded types, sources, tags,
// threads and submission times.
func requests(seed uint64, n int) []*iface.Request {
	rng := sim.NewRNG(seed)
	rs := make([]*iface.Request, n)
	for i := range rs {
		r := &iface.Request{ID: uint64(i + 1), LPN: iface.LPN(rng.Intn(1 << 16)), Thread: rng.Intn(8),
			Submitted: sim.Time(i) * 1000, Issued: sim.Time(i)*1000 + 200}
		r.Dispatched = r.Issued + sim.Time(rng.Intn(50_000))
		r.Completed = r.Dispatched + sim.Time(25_000+rng.Intn(400_000))
		if rng.Intn(2) == 0 {
			r.Type = iface.Write
		}
		if rng.Intn(4) == 0 {
			r.Source = iface.Source(1 + rng.Intn(3))
		}
		r.Tags.Priority = iface.Priority(rng.Intn(3) - 1)
		rs[i] = r
	}
	return rs
}

// lunGate is the stub sched.Gate: sixteen wait-classes standing for LUNs, the
// one dispatched to last is busy, and its token moves when it frees up.
type lunGate struct {
	busy   int
	tokens [16]uint64
}

func classOf(r *iface.Request) int { return int(r.LPN) & 15 }

func (g *lunGate) Evaluate(r *iface.Request) (bool, int) {
	if c := classOf(r); c == g.busy {
		return false, c
	}
	return true, classOf(r)
}
func (g *lunGate) ClassToken(class int) uint64 { return g.tokens[class] }
func (g *lunGate) ClassStable(int) uint64      { return 0 }

func (g *lunGate) dispatched(r *iface.Request) {
	if g.busy >= 0 {
		g.tokens[g.busy]++
	}
	g.busy = -1
	if r != nil {
		g.busy = classOf(r)
	}
}

// ssdPop holds a device-side policy at a steady depth of 256 and pops n
// requests through PopClassed, pushing one for each popped.
func ssdPop(policy func() sched.ClassedPolicy) func(*kernelEnv, int) (func(), float64) {
	return func(k *kernelEnv, n int) (func(), float64) {
		const depth = 256
		rs := requests(k.seed, n+depth)
		p := policy()
		for _, r := range rs[:depth] {
			p.Push(r)
		}
		g := &lunGate{busy: -1}
		return func() {
			for i := 0; i < n; i++ {
				now := rs[depth+i].Submitted
				r := p.PopClassed(now, g)
				if r == nil { // only the busy class is left: it frees up
					g.dispatched(nil)
					r = p.PopClassed(now, g)
				}
				g.dispatched(r)
				p.Push(rs[depth+i])
			}
		}, float64(n)
	}
}

// osPop is ssdPop for the OS layer's policies.
func osPop(policy func() osched.Policy) func(*kernelEnv, int) (func(), float64) {
	return func(k *kernelEnv, n int) (func(), float64) {
		const depth = 256
		rs := requests(k.seed, n+depth)
		p := policy()
		for _, r := range rs[:depth] {
			p.Push(r)
		}
		return func() {
			for i := 0; i < n; i++ {
				p.Pop(rs[depth+i].Submitted)
				p.Push(rs[depth+i])
			}
		}, float64(n)
	}
}

// selectVictim asks a collector with the given policy for victims on the
// aged device, LUN after LUN.
func selectVictim(policy func() gc.VictimPolicy) func(*kernelEnv, int) (func(), float64) {
	return func(k *kernelEnv, n int) (func(), float64) {
		st := k.restored()
		col := gc.NewCollector(st.Controller.BlockManager(), policy(), 2)
		luns := st.Controller.BlockManager().LUNs()
		now := st.Engine.Now()
		return func() {
			for i := 0; i < n; i++ {
				col.SelectVictim(i%luns, now)
			}
		}, float64(n)
	}
}

// hostIO times whole application IOs through a restored stack — engine, OS
// scheduler, controller, FTL, flash — one closed-loop thread on the aged
// device.
func hostIO(thread func(space, n int64) workload.Thread) func(*kernelEnv, int) (func(), float64) {
	return func(k *kernelEnv, n int) (func(), float64) {
		st := k.restored()
		st.Add(thread(int64(st.LogicalPages()), int64(n)))
		return func() { st.Run() }, float64(n)
	}
}

func (k *kernelEnv) traceOf(n int) *trace.Trace {
	rng := sim.NewRNG(k.seed)
	t := &trace.Trace{Records: make([]trace.Record, n)}
	var at sim.Time
	for i := range t.Records {
		at += sim.Time(rng.Intn(200_000))
		t.Records[i] = trace.Record{At: at, Thread: rng.Intn(4), Op: iface.ReqType(rng.Intn(2)),
			LPN: iface.LPN(rng.Intn(1 << 20)), Size: 1}
	}
	return t
}

// table is the kernels' query input.
func (k *kernelEnv) table(n int) ([]resultstore.Row, *query.Table) {
	rows := k.rows
	if n < len(rows) {
		rows = rows[:n]
	}
	return rows, query.FromRows(rows)
}

var kernels = []kernel{
	{"sim.schedule_fire_ns", 500_000, func(k *kernelEnv, n int) (func(), float64) {
		// 1024 self-rescheduling events with seeded delays until n have fired.
		eng := sim.NewEngine()
		rng := sim.NewRNG(k.seed)
		left := n
		var fire func(any)
		fire = func(any) {
			if left--; left > 0 {
				eng.ScheduleCall(eng.Now().Add(sim.Duration(1+rng.Intn(100_000))), fire, nil)
			}
		}
		return func() {
			for i := 0; i < 1024 && i < n; i++ {
				eng.ScheduleCall(sim.Time(rng.Intn(100_000)), fire, nil)
			}
			eng.RunUntilIdle()
		}, float64(n)
	}},
	{"sim.zipf_next_ns", 1_000_000, func(k *kernelEnv, n int) (func(), float64) {
		z := sim.NewZipf(sim.NewRNG(k.seed), 1<<16, 1.2)
		return func() {
			for i := 0; i < n; i++ {
				z.Next()
			}
		}, float64(n)
	}},
	{"flash.write_ns", 65_536, func(k *kernelEnv, n int) (func(), float64) {
		arr := flash.NewArray(kernelGeo, flash.TimingSLC(), flash.Features{})
		ppas := pageOrder(n)
		return func() {
			for _, p := range ppas {
				_, err := arr.ScheduleWrite(p, 0)
				must(err)
			}
		}, float64(len(ppas))
	}},
	{"flash.read_ns", 65_536, func(k *kernelEnv, n int) (func(), float64) {
		arr, ppas := filledArray(n)
		return func() {
			for _, p := range ppas {
				_, err := arr.ScheduleRead(p, 0)
				must(err)
			}
		}, float64(len(ppas))
	}},
	{"flash.erase_ns", 65_536, func(k *kernelEnv, n int) (func(), float64) {
		// n pages' worth of whole blocks, emptied, then erased.
		arr, ppas := filledArray(n / kernelGeo.PagesPerBlock * kernelGeo.PagesPerBlock)
		var blocks []flash.BlockID
		for _, p := range ppas {
			must(arr.Invalidate(p))
			if p.Page == 0 {
				blocks = append(blocks, flash.BlockID{LUN: p.LUN, Block: p.Block})
			}
		}
		if len(blocks) == 0 {
			return func() {}, 1
		}
		return func() {
			for _, b := range blocks {
				_, err := arr.ScheduleErase(b, 0)
				must(err)
			}
		}, float64(len(blocks))
	}},
	{"flash.invalidate_ns", 65_536, func(k *kernelEnv, n int) (func(), float64) {
		arr, ppas := filledArray(n)
		return func() {
			for _, p := range ppas {
				must(arr.Invalidate(p))
			}
		}, float64(len(ppas))
	}},
	{"flash.min_valid_block_ns", 200_000, func(k *kernelEnv, n int) (func(), float64) {
		arr := k.restored().Controller.Array()
		geo := arr.Geometry()
		eligible := make([]uint64, arr.BucketWords())
		for i := range eligible {
			eligible[i] = ^uint64(0)
		}
		return func() {
			for i := 0; i < n; i++ {
				arr.MinValidBlock(i%geo.LUNs(), eligible, geo.PagesPerBlock)
			}
		}, float64(n)
	}},
	{"ftl.pagemap_map_ns", 500_000, func(k *kernelEnv, n int) (func(), float64) {
		nLPNs := kernelGeo.Pages() * 85 / 100
		pm := ftl.NewPageMap(kernelGeo, nLPNs)
		rng := sim.NewRNG(k.seed)
		lpns := make([]iface.LPN, n)
		for i := range lpns {
			lpns[i] = iface.LPN(rng.Intn(nLPNs))
		}
		pages := kernelGeo.Pages()
		return func() {
			for i, lpn := range lpns {
				pm.Map(lpn, kernelGeo.PPAOf(i%pages))
			}
		}, float64(n)
	}},
	{"ftl.pagemap_lookup_ns", 1_000_000, func(k *kernelEnv, n int) (func(), float64) {
		nLPNs := kernelGeo.Pages() * 85 / 100
		pm := ftl.NewPageMap(kernelGeo, nLPNs)
		for i := 0; i < nLPNs; i++ {
			pm.Map(iface.LPN(i), kernelGeo.PPAOf(i))
		}
		rng := sim.NewRNG(k.seed)
		lpns := make([]iface.LPN, n)
		for i := range lpns {
			lpns[i] = iface.LPN(rng.Intn(nLPNs))
		}
		return func() {
			for _, lpn := range lpns {
				pm.Lookup(lpn)
			}
		}, float64(n)
	}},
	{"ftl.dftl_hit_ns", 1_000_000, func(k *kernelEnv, n int) (func(), float64) {
		// A working set half the size of the cached mapping table.
		d := ftl.NewDFTL(kernelGeo, kernelGeo.Pages()*85/100, 4096, 2)
		for i := 0; i < 2048; i++ {
			d.Access(iface.LPN(i), false)
		}
		rng := sim.NewRNG(k.seed)
		return func() {
			for i := 0; i < n; i++ {
				d.Access(iface.LPN(rng.Intn(2048)), i&1 == 0)
			}
		}, float64(n)
	}},
	{"ftl.dftl_miss_ns", 200_000, func(k *kernelEnv, n int) (func(), float64) {
		// Writes striding over the whole space: every access misses and evicts
		// a dirty entry, so translation writes and ring cleaning run too.
		nLPNs := kernelGeo.Pages() * 85 / 100
		d := ftl.NewDFTL(kernelGeo, nLPNs, 64, 2)
		const stride = 4099 // prime, above the table size
		return func() {
			for i := 0; i < n; i++ {
				d.Access(iface.LPN(i*stride%nLPNs), true)
			}
		}, float64(n)
	}},
	{"ftl.bm_alloc_release_ns", 500_000, func(k *kernelEnv, n int) (func(), float64) {
		// One stream per LUN fills a block page by page; the block then goes
		// back to the pool as if collected and erased.
		arr := flash.NewArray(kernelGeo, flash.TimingSLC(), flash.Features{})
		bm := ftl.NewBlockManager(arr, 0, 2, false)
		return func() {
			for i := 0; i < n; i++ {
				p, err := bm.Alloc(i%kernelGeo.LUNs(), ftl.StreamDefault)
				must(err)
				if p.Page == kernelGeo.PagesPerBlock-1 {
					bm.Release(flash.BlockID{LUN: p.LUN, Block: p.Block})
				}
			}
		}, float64(n)
	}},
	{"gc.select_greedy_ns", 200_000, selectVictim(func() gc.VictimPolicy { return gc.Greedy{} })},
	{"gc.select_costbenefit_ns", 2_000, selectVictim(func() gc.VictimPolicy { return gc.CostBenefit{} })},
	{"gc.select_random_ns", 2_000, selectVictim(func() gc.VictimPolicy { return &gc.Random{RNG: sim.NewRNG(1)} })},
	{"wl.victims_ns", 2_000, func(k *kernelEnv, n int) (func(), float64) {
		st := k.restored()
		cfg := wl.DefaultConfig()
		cfg.Static = true
		lvl := wl.NewLeveler(st.Controller.BlockManager(), cfg)
		now := st.Engine.Now()
		return func() {
			for i := 0; i < n; i++ {
				lvl.Victims(now.Add(sim.Duration(i) * sim.Millisecond))
			}
		}, float64(n)
	}},
	{"hotcold.mbf_record_ns", 1_000_000, func(k *kernelEnv, n int) (func(), float64) {
		m := hotcold.NewMBF(hotcold.DefaultMBFConfig())
		z := sim.NewZipf(sim.NewRNG(k.seed), 1<<16, 1.2)
		lpns := make([]iface.LPN, n)
		for i := range lpns {
			lpns[i] = iface.LPN(z.Next())
		}
		return func() {
			for _, lpn := range lpns {
				m.RecordWrite(lpn)
			}
		}, float64(n)
	}},
	{"sched.fifo_pop_ns", 200_000, ssdPop(func() sched.ClassedPolicy { return &sched.FIFO{} })},
	{"sched.priority_pop_ns", 200_000, ssdPop(func() sched.ClassedPolicy {
		return &sched.Priority{Prefer: sched.PreferReads, Internal: sched.InternalLast, UseTags: true}
	})},
	{"sched.deadline_pop_ns", 200_000, ssdPop(func() sched.ClassedPolicy {
		return &sched.Deadline{ReadDeadline: 100 * sim.Microsecond, WriteDeadline: sim.Millisecond, InternalDeadline: 5 * sim.Millisecond}
	})},
	{"sched.fair_pop_ns", 200_000, ssdPop(func() sched.ClassedPolicy { return &sched.Fair{} })},
	{"osched.fifo_pop_ns", 500_000, osPop(func() osched.Policy { return &osched.FIFO{} })},
	{"osched.prio_pop_ns", 500_000, osPop(func() osched.Policy { return &osched.Prio{ReadsFirst: true} })},
	{"osched.elevator_pop_ns", 200_000, osPop(func() osched.Policy { return &osched.Elevator{} })},
	{"osched.cfq_pop_ns", 500_000, osPop(func() osched.Policy { return &osched.CFQ{} })},
	{"controller.write_io_ns", 50_000, hostIO(func(space, n int64) workload.Thread {
		return &workload.RandomWriter{Space: space, Count: n, Depth: 32}
	})},
	{"controller.read_io_ns", 50_000, hostIO(func(space, n int64) workload.Thread {
		return &workload.RandomReader{Space: space, Count: n, Depth: 32}
	})},
	{"stats.record_ns", 1_000_000, func(k *kernelEnv, n int) (func(), float64) {
		col := stats.NewCollector(0, 0)
		rs := requests(k.seed, 4096)
		return func() {
			for i := 0; i < n; i++ {
				col.RecordCompletion(rs[i&4095])
			}
		}, float64(n)
	}},
	{"stats.percentile_ns", 200_000, func(k *kernelEnv, n int) (func(), float64) {
		var d stats.Dist
		for _, r := range requests(k.seed, 4096) {
			d.Add(r.Latency())
		}
		return func() {
			for i := 0; i < n; i++ {
				d.Percentile(0.99)
			}
		}, float64(n)
	}},
	{"trace.encode_bin_ns", 200_000, func(k *kernelEnv, n int) (func(), float64) {
		t := k.traceOf(n)
		return func() { must(trace.EncodeBinary(&bytes.Buffer{}, t)) }, float64(n)
	}},
	{"trace.decode_bin_ns", 200_000, func(k *kernelEnv, n int) (func(), float64) {
		var buf bytes.Buffer
		must(trace.EncodeBinary(&buf, k.traceOf(n)))
		return func() {
			_, err := trace.DecodeBinary(&buf)
			must(err)
		}, float64(n)
	}},
	{"trace.decode_text_ns", 100_000, func(k *kernelEnv, n int) (func(), float64) {
		var buf bytes.Buffer
		must(trace.EncodeText(&buf, k.traceOf(n)))
		return func() {
			_, err := trace.DecodeText(&buf)
			must(err)
		}, float64(n)
	}},
	{"trace.hash_ns", 200_000, func(k *kernelEnv, n int) (func(), float64) {
		t := k.traceOf(n)
		return func() {
			_, err := t.Hash()
			must(err)
		}, float64(n)
	}},
	{"snapshot.encode_mb_s", 4, func(k *kernelEnv, n int) (func(), float64) {
		return func() {
			for i := 0; i < n; i++ {
				snapshot.Encode(k.state)
			}
		}, float64(n * len(k.aged))
	}},
	{"snapshot.decode_mb_s", 4, func(k *kernelEnv, n int) (func(), float64) {
		return func() {
			for i := 0; i < n; i++ {
				_, err := snapshot.Decode(k.aged)
				must(err)
			}
		}, float64(n * len(k.aged))
	}},
	{"snapshot.verify_mb_s", 4, func(k *kernelEnv, n int) (func(), float64) {
		return func() {
			for i := 0; i < n; i++ {
				must(snapshot.Verify(k.aged))
			}
		}, float64(n * len(k.aged))
	}},
	{"core.restore_ms", 8, func(k *kernelEnv, n int) (func(), float64) {
		return func() {
			for i := 0; i < n; i++ {
				k.restored()
			}
		}, float64(n)
	}},
	{"core.new_ms", 8, func(k *kernelEnv, n int) (func(), float64) {
		return func() {
			for i := 0; i < n; i++ {
				_, err := core.New(k.cfg)
				must(err)
			}
		}, float64(n)
	}},
	{"spec.decode_us", 50, func(k *kernelEnv, n int) (func(), float64) {
		return func() {
			for i := 0; i < n; i++ {
				_, err := spec.Decode(k.gridDoc)
				must(err)
			}
		}, float64(n)
	}},
	{"spec.canonkey_us", 5_000, func(k *kernelEnv, n int) (func(), float64) {
		return func() {
			for i := 0; i < n; i++ {
				_, err := spec.CanonKey(k.cfg)
				must(err)
			}
		}, float64(n)
	}},
	{"spec.expand_us_per_variant", 2, func(k *kernelEnv, n int) (func(), float64) {
		// The grid document expanded and every variant resolved, n times over.
		doc, err := spec.Decode(k.gridDoc)
		must(err)
		variants, err := doc.ExpandVariants()
		must(err)
		return func() {
			for i := 0; i < n; i++ {
				vs, err := doc.ExpandVariants()
				must(err)
				for _, v := range vs {
					c, err := doc.ConfigFor(v)
					must(err)
					_, err = c.Resolve()
					must(err)
				}
			}
		}, float64(n * len(variants))
	}},
	{"experiment.cache_hit_us", 8, func(k *kernelEnv, n int) (func(), float64) {
		// A new cache handle on a warm directory, as each warm_restore pass
		// opens one: the hit is a file read plus the cache's own validation.
		dir := filepath.Join(k.dir, "kernel-cache")
		experiment.NewStateCache(dir).Put("aged", k.aged)
		return func() {
			for i := 0; i < n; i++ {
				_, hit, err := experiment.NewStateCache(dir).Fetch("aged", func() ([]byte, error) {
					return nil, fmt.Errorf("bench: warm cache missed")
				})
				must(err)
				if !hit {
					panic("bench: kernel: warm cache missed")
				}
			}
		}, float64(n)
	}},
	{"fabric.codec_lease_ns", 100_000, func(k *kernelEnv, n int) (func(), float64) {
		// One lease message written and read back, n times.
		var buf bytes.Buffer
		codec := fabric.NewCodec(&buf, &buf)
		key, err := spec.CanonKey(k.cfg)
		must(err)
		return func() {
			for i := 0; i < n; i++ {
				must(codec.Send(fabric.Msg{Type: fabric.MsgLease, Index: i, Key: key}))
				_, err := codec.Recv()
				must(err)
			}
		}, float64(n)
	}},
	{"fabric.codec_state_mb_s", 4, func(k *kernelEnv, n int) (func(), float64) {
		var buf bytes.Buffer
		codec := fabric.NewCodec(&buf, &buf)
		return func() {
			for i := 0; i < n; i++ {
				must(codec.Send(fabric.Msg{Type: fabric.MsgState, Key: "aged", Data: k.aged}))
				_, err := codec.Recv()
				must(err)
			}
		}, float64(n * len(k.aged))
	}},
	{"resultstore.encode_ns_per_row", 20_000, func(k *kernelEnv, n int) (func(), float64) {
		rows, _ := k.table(n)
		return func() { resultstore.EncodeSegment(rows) }, float64(len(rows))
	}},
	{"resultstore.decode_ns_per_row", 20_000, func(k *kernelEnv, n int) (func(), float64) {
		rows, _ := k.table(n)
		data := resultstore.EncodeSegment(rows)
		return func() {
			_, err := resultstore.DecodeSegment(data)
			must(err)
		}, float64(len(rows))
	}},
	{"query.filter_ns_per_row", 20_000, func(k *kernelEnv, n int) (func(), float64) {
		rows, tab := k.table(n)
		preds := []query.Predicate{{Col: "commit", Op: "=", Val: labelCand}, {Col: "throughput_iops", Op: ">", Val: "6000"}}
		return func() {
			_, err := tab.Filter(preds)
			must(err)
		}, float64(len(rows))
	}},
	{"query.sort_ns_per_row", 20_000, func(k *kernelEnv, n int) (func(), float64) {
		rows, tab := k.table(n)
		return func() {
			_, err := tab.Sort([]string{"-throughput_iops", "experiment"})
			must(err)
		}, float64(len(rows))
	}},
	{"query.groupby_ns_per_row", 20_000, func(k *kernelEnv, n int) (func(), float64) {
		rows, tab := k.table(n)
		aggs := []query.Agg{{Fn: "count"}, {Fn: "mean", Col: "throughput_iops"}, {Fn: "ci95", Col: "throughput_iops"}}
		return func() {
			_, err := tab.GroupBy([]string{"experiment", "label"}, aggs)
			must(err)
		}, float64(len(rows))
	}},
	{"query.join_ns_per_row", 20_000, func(k *kernelEnv, n int) (func(), float64) {
		rows, tab := k.table(n)
		side, err := tab.Project([]string{"experiment", "commit", "index", "seed", "throughput_iops"})
		must(err)
		return func() {
			_, err := side.Join(side, []string{"experiment", "commit", "index", "seed"}, "_l", "_r")
			must(err)
		}, float64(len(rows))
	}},
	{"query.diff_ns_per_row", 20_000, func(k *kernelEnv, n int) (func(), float64) {
		rows, _ := k.table(len(k.rows)) // both commit labels are needed
		return func() {
			_, _, err := query.Diff(rows, labelBase, labelCand, []string{"throughput_iops", "write_amp"})
			must(err)
		}, float64(len(rows))
	}},
}
