package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"eagletree/internal/experiment"
	"eagletree/internal/resultstore"
	"eagletree/internal/spec"
)

// env is what a workload's set-up is given.
type env struct {
	root string // repo root: specs/ lives here
	tmp  string // scratch directory of this run, inside the checkout, removed at exit
	seed uint64
	sz   sizes
	// traced says the run will drive the layers directly, so set-up also
	// warms what only that flow reads.
	traced bool
}

// workloadDef is one named set of inputs. Names are fixed: BENCHMARK.json and
// every later comparison refer to them.
type workloadDef struct {
	name    string
	why     string
	tailPct float64 // the percentile op_ms_tail reports, fixed so that ≥10 samples lie beyond it
	open    func(e *env) (*instance, error)
}

// instance is a workload after set-up: inputs generated from the seed,
// devices aged, caches warmed.
type instance struct {
	// pass runs the workload once through the program's public entry points,
	// as a single client that waits for each reply. Spans are recorded only
	// by corpus_query, whose operations are the layer calls themselves.
	pass func(l *spanLog, clk *opClock) (passOutput, time.Duration, error)
	// drive is the traced pass of a sweep workload: the Runner's flow
	// reproduced through layer calls, returning the same lines pass does.
	drive func(l *spanLog, c *counts) ([]string, error)
	// golden lists what committed specs must reproduce, by line key; nil
	// unless the seed is one golden.txt covers.
	golden map[string]string
	// reference, when set, is another path's output that every pass must
	// equal (fabric_pipe against the in-process rows of warm_restore).
	reference []string
	// captureS is the E13 trace memoization set-up paid, so that the first
	// timed pass does not.
	captureS float64
	// inProcess and wire exist for fabric_pipe only: the same document
	// through the in-process Runner, and what crossed the pipe so far.
	inProcess func(l *spanLog, clk *opClock) (passOutput, time.Duration, error)
	wire      func() (bytes, msgs int64)
}

var workloads = []workloadDef{
	{
		name:    "gc_write_cold",
		why:     "full-scale E4+E8: write-only Zipf overwrite with GC, wear levelling and hot/cold detection from a cold cache; sim, controller, sched, gc, wl, flash, pagemap do the work",
		tailPct: 50, // 7 operations a pass
		open:    func(e *env) (*instance, error) { return openCold(e, e.sz.gcSpecs) },
	},
	{
		name: "mixed_cold",
		why:  "full-scale E2,E5,E6,E9,E10,E12,E13 and E14's device under program faults: the same layers used differently - reads beside writes, DFTL, priority policies, trace replay, copyback, fault refire",
		// The fourth-costliest of a pass's 43 variants, a cluster of its own
		// near 180 ms; p90 falls on the edge between two clusters.
		tailPct: 92,
		open: func(e *env) (*instance, error) {
			e14, err := spec.ReadFile(filepath.Join(e.root, e.sz.faultSpec))
			if err != nil {
				return nil, err
			}
			fault := filepath.Join(e.tmp, "fault.json")
			if err := spec.WriteFile(fault, faultDoc(e14)); err != nil {
				return nil, err
			}
			return openCold(e, e.sz.mixedSpecs, fault)
		},
	},
	{
		name:    "warm_restore",
		why:     "16 measurement-knob variants of 500 reads restored from one 2 GiB aged device on a warm disk cache: snapshot read, verify, decode and core.Restore dominate, simulation is small",
		tailPct: 95,
		open:    func(e *env) (*instance, error) { return openWarm(e, false) },
	},
	{
		name:    "fabric_pipe",
		why:     "the warm_restore document through fabric.Run and one in-process worker over net.Pipe: same rows, the difference is the wire (NDJSON, base64 state transfer, lease round trips)",
		tailPct: 95,
		open:    func(e *env) (*instance, error) { return openWarm(e, true) },
	},
	{
		name: "grid_sweep",
		why:  "1024 variants of 300 IOs on a small filled device, rows stored and queried back: per-variant fixed cost (spec, core.Restore, event plumbing, result store) is a quarter of the pass, not a thousandth",
		// Not p99: from p94 up the variants are the ones a collector cycle
		// overlaps, and how long a cycle's concurrent phase lasts on two
		// processors drifts with the host (p99 read 1.06 ms and 1.45 ms, p95
		// 0.74 ms and 0.9 ms, minutes apart; p90 stayed within 3 %).
		tailPct: 90,
		open:    openGrid,
	},
	{
		name: "corpus_query",
		why:  "200000-row synthetic archive appended, read back and queried six ways: resultstore and query only, the simulator does nothing",
		// The self-join, fourth-costliest of a pass's 108 calls; p95 falls
		// between the two group-bys.
		tailPct: 97,
		open:    openCorpus,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func sha(s string) []byte {
	sum := sha256.Sum256([]byte(s))
	return sum[:16]
}

func memCache() *experiment.StateCache { return experiment.NewStateCache("") }

// drivePass runs the direct-drive flow over a sweep's documents and renders
// the rows as the Runner pass does.
func drivePass(l *spanLog, c *counts, s *sweep, dir string, stored bool) ([]string, error) {
	d := &driver{l: l, c: c, seed: s.seed, dir: dir, states: map[string][]byte{}}
	var lines, texts []string
	for _, path := range s.paths {
		var sink *resultstore.Sink
		var store *resultstore.Store
		if stored {
			storeDir, err := os.MkdirTemp(s.storeRoot, "store-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(storeDir)
			doc, err := s.load(path)
			if err != nil {
				return nil, err
			}
			if store, err = resultstore.Open(storeDir); err != nil {
				return nil, err
			}
			end := l.begin("resultstore.sink")
			sink, err = resultstore.NewSink(store, doc, "bench")
			end()
			if err != nil {
				return nil, err
			}
		}
		name, rows, err := d.doc(path, sink)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			lines = append(lines, rowLine(s.seed, name, row)+timelineSuffix(row))
		}
		if sink != nil {
			qs, err := storeAndQuery(l, sink, store)
			if err != nil {
				return nil, err
			}
			texts = append(texts, qs...)
		}
	}
	return append(lines, texts...), nil
}

// captureTraces pays the E13 reference-trace capture, which the e13replay
// thread type memoizes per process, so that set-up is charged for it and the
// first timed pass is not.
func captureTraces(paths []string) (float64, error) {
	var total time.Duration
	for _, p := range paths {
		doc, err := spec.ReadFile(p)
		if err != nil {
			return 0, err
		}
		variants, err := doc.ExpandVariants()
		if err != nil {
			return 0, err
		}
		threads := doc.Workload
		for _, v := range variants {
			threads = append(threads[:len(threads):len(threads)], v.Workload...)
		}
		for _, t := range threads {
			if t.Type != "e13replay" {
				continue
			}
			begin := time.Now()
			if _, err := spec.MakeThread(t, spec.Env{N: 1, PPB: 1, QD: 32, F: doc.Factor}); err != nil {
				return 0, err
			}
			total += time.Since(begin)
		}
	}
	return total.Seconds(), nil
}

// openCold sets up a cold workload over committed spec documents (and any
// generated ones, given by path): every pass starts from an empty in-memory
// snapshot cache.
func openCold(e *env, specs []string, generated ...string) (*instance, error) {
	s := &sweep{seed: e.seed, cache: memCache}
	for _, p := range specs {
		s.paths = append(s.paths, filepath.Join(e.root, p))
	}
	s.paths = append(s.paths, generated...)
	inst := &instance{
		pass:  func(_ *spanLog, clk *opClock) (passOutput, time.Duration, error) { return s.pass(clk) },
		drive: func(l *spanLog, c *counts) ([]string, error) { return drivePass(l, c, s, "", false) },
	}
	var err error
	if inst.captureS, err = captureTraces(s.paths); err != nil {
		return nil, err
	}
	if e.sz.golden != "" {
		if inst.golden, err = readGolden(filepath.Join(e.root, e.sz.golden), e.seed); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// openWarm generates the warm_restore document, ages its device once into a
// disk cache, and returns passes that each open a new Runner (or a new
// fabric coordinator) on that warm cache.
func openWarm(e *env, viaFabric bool) (*instance, error) {
	path := filepath.Join(e.tmp, "warm.json")
	if err := spec.WriteFile(path, warmDoc(e.sz, e.seed)); err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(e.tmp, "state-cache")
	driveDir := filepath.Join(e.tmp, driveStates)
	for _, dir := range []string{cacheDir, driveDir} { // a repeated set-up starts cold again
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(driveDir, 0o755); err != nil {
		return nil, err
	}
	warm := func() *experiment.StateCache { return experiment.NewStateCache(cacheDir) }
	inProcess := &sweep{seed: e.seed, paths: []string{path}, cache: warm}
	// The first pass misses, ages the device and saves it; it is set-up.
	first, _, err := inProcess.pass(&opClock{})
	if err != nil {
		return nil, err
	}
	if first.misses != 1 {
		return nil, fmt.Errorf("bench: warm_restore variants share one prepared state, got %d builds", first.misses)
	}
	inst := &instance{
		pass: func(_ *spanLog, clk *opClock) (passOutput, time.Duration, error) { return inProcess.pass(clk) },
		drive: func(l *spanLog, c *counts) ([]string, error) {
			return drivePass(l, c, inProcess, driveDir, false)
		},
	}
	if viaFabric {
		var wire wireCounter
		piped := &sweep{seed: e.seed, paths: []string{path}, cache: warm, viaFabric: true,
			wrapConn: func(c io.ReadWriteCloser) io.ReadWriteCloser { return &countingConn{ReadWriteCloser: c, n: &wire} }}
		inst.inProcess = inst.pass
		inst.pass = func(_ *spanLog, clk *opClock) (passOutput, time.Duration, error) { return piped.pass(clk) }
		inst.reference = first.lines
		inst.wire = wire.load
	}
	if e.traced {
		// The direct-drive flow keeps its own state file; age into it now so
		// that the traced pass is a warm one, like the passes it explains.
		if _, err := inst.drive(nil, &counts{}); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// openGrid generates the grid document; its passes start cold (the fill is
// cheap and shared) and carry rows through the result store and back.
func openGrid(e *env) (*instance, error) {
	path := filepath.Join(e.tmp, "grid.json")
	if err := spec.WriteFile(path, gridDoc(e.sz, e.seed)); err != nil {
		return nil, err
	}
	s := &sweep{seed: e.seed, paths: []string{path}, cache: memCache, storeRoot: e.tmp}
	return &instance{
		pass:  func(_ *spanLog, clk *opClock) (passOutput, time.Duration, error) { return s.pass(clk) },
		drive: func(l *spanLog, c *counts) ([]string, error) { return drivePass(l, c, s, "", true) },
	}, nil
}

func openCorpus(e *env) (*instance, error) {
	c := makeCorpus(e.sz, e.seed, e.tmp)
	return &instance{pass: c.pass}, nil
}
