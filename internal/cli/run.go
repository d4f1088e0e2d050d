package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/sim"
	"eagletree/internal/snapshot"
	"eagletree/internal/spec"
	"eagletree/internal/trace"
	"eagletree/internal/workload"
)

// workloadFlags shape the measured workload of run/record/replay.
type workloadFlags struct {
	workload *string
	count    *int64
	depth    *int
	readFrac *float64
	oracle   *bool
	prepare  *bool
}

func addWorkloadFlags(fs *flag.FlagSet) *workloadFlags {
	w := &workloadFlags{}
	w.workload = fs.String("workload", "randwrite",
		"workload thread type: "+kindHelp(spec.KindThread)+" — parameters as name:key=val,… (see SPEC.md)")
	w.count = fs.Int64("count", 10000, "workload IO count (ops for fs, inserts for lsm)")
	w.depth = fs.Int("depth", 32, "workload IO depth")
	w.readFrac = fs.Float64("read-frac", 0.5, "read fraction for -workload mix")
	w.oracle = fs.Bool("oracle-temp", false, "zipf workload publishes oracle temperature tags (needs -open)")
	w.prepare = fs.Bool("prepare", false, "prepare the device first (sequential fill + random overwrite), measure only the workload")
	return w
}

// reportFlags shape what a single run prints.
type reportFlags struct {
	series *bool
	mem    *bool
	traceN *int
}

func addReportFlags(fs *flag.FlagSet) *reportFlags {
	r := &reportFlags{}
	r.series = fs.Bool("series", false, "print the completion time series sparkline")
	r.mem = fs.Bool("mem", false, "print the controller memory report")
	r.traceN = fs.Int("trace", 0, "record an IO trace and print its last N events")
	return r
}

// buildDocument renders the flag selection as a single-run experiment
// document — the same document -dump-spec writes and `eagletree spec` runs,
// so the flag mode and the document mode cannot drift: the flags ARE a
// document. It returns the document beside its compilation.
func buildDocument(cfgF *configFlags, wlF *workloadFlags, repF *reportFlags, thread *spec.Thread) (doc spec.Experiment, def experiment.Definition, err error) {
	base := cfgF.configSpec()
	if *repF.series {
		base.SeriesBucket = spec.Duration(10 * sim.Millisecond)
	}
	if *repF.traceN > 0 {
		base.TraceCap = *repF.traceN
	}
	doc = spec.Experiment{
		Doc:  "dumped from eagletree command-line flags",
		Base: base,
	}
	if thread != nil {
		doc.Name = "cli-replay"
		doc.Workload = []spec.Thread{*thread}
	} else {
		t, name, err := flagThread(base, wlF)
		if err != nil {
			return doc, def, err
		}
		doc.Name = "cli-" + name
		doc.Workload = []spec.Thread{t}
	}
	if *wlF.prepare {
		doc.Prep = &spec.Prep{FillDepth: 32, AgePasses: 1}
	}
	def, err = experiment.FromSpec(doc)
	return doc, def, err
}

// flagThread builds the workload thread declaration from the sugar flags
// (-count, -depth, -read-frac, …) plus any name:key=val parameters, which
// override the sugar. Sizes the flag mode derives from device capacity are
// written as expressions over n, so a dumped document stays meaningful if
// its geometry is edited later.
func flagThread(base spec.Config, wlF *workloadFlags) (spec.Thread, string, error) {
	sel := *wlF.workload
	name, _, _ := strings.Cut(sel, ":")
	if _, err := spec.Lookup(spec.KindThread, name); err != nil {
		return spec.Thread{}, "", err
	}

	// The flag mode caps sequential passes at the device's logical capacity;
	// resolve n once to preserve that exact arithmetic in the document. The
	// probe stack is the one authoritative source of exported capacity (the
	// block manager's data pages net of reserved translation blocks and bad
	// blocks, scaled by overprovisioning) — building it once per invocation
	// beats duplicating that derivation here.
	cfg, err := base.Resolve()
	if err != nil {
		return spec.Thread{}, "", err
	}
	probe, err := core.New(cfg)
	if err != nil {
		return spec.Thread{}, "", err
	}
	n := int64(probe.LogicalPages())

	count, depth := *wlF.count, *wlF.depth
	open := base.OpenInterface
	var params map[string]any
	switch name {
	case "seqwrite", "seqread":
		cnt := any(count)
		if count >= n {
			cnt = "n"
		}
		params = map[string]any{"from": 0, "count": cnt, "depth": depth}
	case "randread", "randwrite":
		params = map[string]any{"from": 0, "space": "n", "count": count, "depth": depth}
	case "zipf":
		params = map[string]any{"from": 0, "space": "n", "count": count, "depth": depth,
			"tag_temperature": *wlF.oracle, "hot_fraction": 0.2}
	case "mix":
		params = map[string]any{"from": 0, "space": "n", "count": count,
			"read_fraction": *wlF.readFrac, "depth": depth}
	case "fs":
		params = map[string]any{"from": 0, "space": "n", "ops": count, "depth": depth,
			"tag_locality": open}
	case "gracejoin":
		params = map[string]any{"r_from": 0, "r_pages": "n/8", "s_from": "n/8", "s_pages": "2*(n/8)",
			"part_from": "3*(n/8)", "partitions": 8, "depth": depth}
	case "lsm":
		params = map[string]any{"from": 0, "space": "n", "inserts": count, "depth": depth,
			"tag_priority": open}
	case "extsort":
		params = map[string]any{"from": 0, "input_pages": "n/3", "scratch_from": "n/3", "depth": depth}
	default:
		// A thread type the sugar flags don't know (trim, e13replay, an
		// application registration): its parameters come entirely from the
		// name:key=val syntax — automatically, straight off the registry.
		params = map[string]any{}
	}

	// Explicit name:key=val parameters override the sugar.
	ref, err := parseRef(spec.KindThread, sel)
	if err != nil {
		return spec.Thread{}, "", err
	}
	for k, v := range ref.Params { //lint:ordered writes land in a keyed map
		params[k] = v
	}
	if len(params) == 0 {
		params = nil
	}
	return spec.Thread{Type: name, Params: params}, name, nil
}

// runtimeOpts are the file-backed runtime operations a document cannot
// express: restoring a saved device state and capturing a trace.
type runtimeOpts struct {
	loadState string
	capture   *trace.Capture
}

// executeSingle drives a compiled single-run document's one variant (the
// implicit "run" variant unless it declares its own) to completion on a live
// stack — the identical path for `run` flags, `record`, `replay` and a
// single-variant `spec FILE`, so they cannot drift — and prints the report.
func executeSingle(def experiment.Definition, rt runtimeOpts, repF *reportFlags, header string, stdout, stderr io.Writer) int {
	variant := def.Variants[0]
	cfg, err := variant.Config.Resolve()
	if err != nil {
		return fail(stderr, err)
	}
	if rt.capture != nil {
		cfg.OS.Capture = rt.capture
	}

	var st *core.Stack
	if rt.loadState != "" {
		ds, err := snapshot.ReadFile(rt.loadState)
		if err != nil {
			return fail(stderr, err)
		}
		st, err = core.Restore(cfg, ds)
		if err != nil {
			return fail(stderr, err)
		}
		st.MarkMeasurement()
		if rt.capture != nil {
			rt.capture.Start(st.Engine.Now())
		}
	} else {
		st, err = core.New(cfg)
		if err != nil {
			return fail(stderr, err)
		}
	}

	var hook func(*workload.Handle) *workload.Handle
	if rt.capture != nil {
		hook = func(barrier *workload.Handle) *workload.Handle {
			if barrier == nil {
				return nil
			}
			return st.Add(&workload.Func{F: func(ctx *workload.Ctx) {
				rt.capture.Start(ctx.Now())
			}}, barrier)
		}
	}
	if err := experiment.RegisterRunHook(variant, def.Factor, st, hook); err != nil {
		return fail(stderr, err)
	}

	end, err := st.RunCtx(context.Background())
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, header)
	fmt.Fprintf(stdout, "simulated %v of device time\n\n", end)
	fmt.Fprint(stdout, st.Report())
	if repF != nil && *repF.series {
		if ts := st.Stats.Series(); ts != nil {
			fmt.Fprintf(stdout, "\ncompletions over time (%d buckets):\n%s\n", ts.Len(), ts.Sparkline())
		}
	}
	if repF != nil && *repF.mem {
		fmt.Fprintf(stdout, "\ncontroller memory:\n%s", st.Controller.Memory().Report())
	}
	if repF != nil && *repF.traceN > 0 {
		tr := st.Stats.Trace()
		fmt.Fprintf(stdout, "\nIO trace (last %d of %d events):\n%s", len(tr.Events()), tr.Total(), tr.Dump())
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "eagletree:", err)
	return 1
}

// cmdRun simulates one flag-selected configuration and workload.
func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eagletree run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgF := addConfigFlags(fs)
	wlF := addWorkloadFlags(fs)
	repF := addReportFlags(fs)
	loadState := fs.String("load-state", "", "restore a prepared device state saved by 'eagletree state save' and run the workload on it (replaces -prepare)")
	dumpSpec := fs.String("dump-spec", "", "write the flag selection as a spec document and exit; re-run it with 'eagletree spec FILE'")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := prof.start(); err != nil {
		return fail(stderr, err)
	}
	defer prof.stop(stderr)
	if fs.NArg() > 0 {
		return fail(stderr, fmt.Errorf("run takes no arguments (got %q)", fs.Arg(0)))
	}
	if *loadState != "" && *wlF.prepare {
		return fail(stderr, fmt.Errorf("-load-state already provides a prepared device; drop -prepare"))
	}
	doc, def, err := buildDocument(cfgF, wlF, repF, nil)
	if err != nil {
		return fail(stderr, err)
	}
	if *dumpSpec != "" {
		if *loadState != "" {
			return fail(stderr, fmt.Errorf("-load-state is a runtime file operation a spec cannot express; drop it for -dump-spec"))
		}
		if err := spec.WriteFile(*dumpSpec, doc); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "eagletree: wrote spec %q %s; run it with: eagletree spec %s\n", doc.Name, *dumpSpec, *dumpSpec)
		return 0
	}
	header := fmt.Sprintf("eagletree: run %s (%dx%d LUNs, policy=%s, qd=%d)",
		doc.Name, *cfgF.channels, *cfgF.luns, cfgF.policy.ref.Name, *cfgF.qd)
	return executeSingle(def, runtimeOpts{loadState: *loadState}, repF, header, stdout, stderr)
}

// cmdRecord is run plus trace capture: the app-level IO stream of the
// measured window lands in -o, and the command prints the trace's content
// hash and the capturing configuration's canonical key — the provenance a
// replay spec pins.
func cmdRecord(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eagletree record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgF := addConfigFlags(fs)
	wlF := addWorkloadFlags(fs)
	repF := addReportFlags(fs)
	out := fs.String("o", "", "trace output file (.etb = binary; required)")
	loadState := fs.String("load-state", "", "restore a prepared device state and capture against it")
	specOut := fs.String("spec-out", "", "also write a ready-made replay spec pinning the trace's content hash and capture provenance")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		return fail(stderr, fmt.Errorf("record needs -o FILE for the captured trace"))
	}
	if *loadState != "" && *wlF.prepare {
		return fail(stderr, fmt.Errorf("-load-state already provides a prepared device; drop -prepare"))
	}
	doc, def, err := buildDocument(cfgF, wlF, repF, nil)
	if err != nil {
		return fail(stderr, err)
	}
	capture := trace.NewCapture()
	if *wlF.prepare || *loadState != "" {
		capture.Stop() // re-armed once the measured window starts
	}
	header := fmt.Sprintf("eagletree: record %s -> %s", doc.Name, *out)
	if code := executeSingle(def, runtimeOpts{loadState: *loadState, capture: capture}, repF, header, stdout, stderr); code != 0 {
		return code
	}
	tr := capture.Trace()
	if err := trace.WriteFile(*out, tr); err != nil {
		return fail(stderr, err)
	}
	hash, err := tr.Hash()
	if err != nil {
		return fail(stderr, err)
	}
	cfg, err := doc.Base.Resolve()
	if err != nil {
		return fail(stderr, err)
	}
	captureKey, err := spec.CanonKey(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "\nrecorded %d IOs spanning %v to %s\n", tr.Len(), tr.Duration(), *out)
	fmt.Fprintf(stdout, "sha256: %s\n", hash)
	if *specOut != "" {
		replayDoc := spec.Experiment{
			Name: doc.Name + "-replay",
			Doc:  "replay of " + *out + ", recorded by 'eagletree record' (provenance pinned)",
			Base: doc.Base,
			Workload: []spec.Thread{{Type: "replay", Params: map[string]any{
				"path": *out, "mode": "closed", "depth": *wlF.depth,
				"sha256": hash, "capture_spec": captureKey,
			}}},
		}
		if err := spec.WriteFile(*specOut, replayDoc); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "replay spec with pinned provenance: %s\n", *specOut)
	}
	return 0
}

// cmdReplay replays a trace file instead of a synthetic workload.
func cmdReplay(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || len(args[0]) == 0 || args[0][0] == '-' {
		fmt.Fprintln(stderr, "usage: eagletree replay FILE [flags] (trace file first; -h lists flags)")
		return 2
	}
	file, rest := args[0], args[1:]
	fs := flag.NewFlagSet("eagletree replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgF := addConfigFlags(fs)
	repF := addReportFlags(fs)
	mode := fs.String("mode", "closed", "trace replay pacing: closed | open | dependent")
	scale := fs.Float64("scale", 1, "trace time scale for open/dependent replay (2 = half rate, 0.5 = double rate)")
	depth := fs.Int("depth", 32, "IOs in flight (closed loop)")
	sha := fs.String("sha256", "", "pinned content hash; replay fails with a typed mismatch error when the file's stream differs")
	prepare := fs.Bool("prepare", false, "prepare the device first, measure only the replay")
	loadState := fs.String("load-state", "", "restore a prepared device state and replay against it")
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	if *loadState != "" && *prepare {
		return fail(stderr, fmt.Errorf("-load-state already provides a prepared device; drop -prepare"))
	}
	params := map[string]any{"path": file, "mode": *mode, "time_scale": *scale, "depth": *depth}
	if *sha != "" {
		params["sha256"] = *sha
	}
	thread := spec.Thread{Type: "replay", Params: params}
	_, def, err := buildDocument(cfgF, &workloadFlags{prepare: prepare}, repF, &thread)
	if err != nil {
		return fail(stderr, err)
	}
	header := fmt.Sprintf("eagletree: replay %s (mode=%s, scale=%g, policy=%s)", file, *mode, *scale, cfgF.policy.ref.Name)
	return executeSingle(def, runtimeOpts{loadState: *loadState}, repF, header, stdout, stderr)
}

// cmdState prepares and saves device states (state save FILE) and inspects
// saved ones (state info FILE).
func cmdState(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: eagletree state save FILE [flags] | eagletree state info FILE")
		return 2
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "save":
		return cmdStateSave(rest, stdout, stderr)
	case "info":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "usage: eagletree state info FILE")
			return 2
		}
		ds, err := snapshot.ReadFile(rest[0])
		if err != nil {
			return fail(stderr, err)
		}
		m := ds.Meta
		fmt.Fprintf(stdout, "%s: %dx%d LUNs, %d blocks/LUN x %d pages, mapping=%s, %d logical pages, seed=%d, device time %v\n",
			rest[0], m.Geometry.Channels, m.Geometry.LUNsPerChannel, m.Geometry.BlocksPerLUN,
			m.Geometry.PagesPerBlock, m.Mapping, m.LogicalPages, m.Seed, ds.Engine.Now)
		return 0
	default:
		fmt.Fprintf(stderr, "eagletree state: unknown verb %q (save | info)\n", verb)
		return 2
	}
}

// cmdStateSave prepares a device (sequential fill + one random overwrite
// pass) under the flag configuration and saves the drained stack, so whole
// sweeps can start from the identical aged device instantly.
func cmdStateSave(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || args[0] == "" || args[0][0] == '-' {
		fmt.Fprintln(stderr, "usage: eagletree state save FILE [flags]")
		return 2
	}
	file, rest := args[0], args[1:]
	fs := flag.NewFlagSet("eagletree state save", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgF := addConfigFlags(fs)
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	cfg, err := cfgF.configSpec().Resolve()
	if err != nil {
		return fail(stderr, err)
	}
	st, err := core.New(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	n := int64(st.LogicalPages())
	seq := st.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: 32})
	st.Add(&workload.RandomWriter{From: 0, Space: n, Count: n, Depth: 32}, seq)
	end := st.Run()
	ds, err := st.Snapshot()
	if err == nil {
		err = snapshot.WriteFile(file, ds)
	}
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "eagletree: prepared device (%d logical pages, %v of device time) saved to %s\n", n, end, file)
	return 0
}
