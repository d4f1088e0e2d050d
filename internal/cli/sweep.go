package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eagletree/internal/experiment"
	"eagletree/internal/fabric"
	"eagletree/internal/query"
	"eagletree/internal/resultstore"
	"eagletree/internal/sim"
	"eagletree/internal/spec"
)

// progressObserver renders the runner's event stream as live per-variant
// progress lines on stderr — queue admission, snapshot-cache provenance,
// per-variant wall clock — without touching stdout (tables and CSV stay
// byte-stable for diffing).
type progressObserver struct {
	w io.Writer
}

func (p progressObserver) OnEvent(ev experiment.Event) {
	wall := ev.Wall.Round(time.Millisecond)
	switch ev.Kind {
	case experiment.EventPrepareHit:
		fmt.Fprintf(p.w, "[%s %d/%d] %s: prepared state restored (cache hit, %v)\n",
			ev.Experiment, ev.Index+1, ev.Variants, ev.Variant, wall)
	case experiment.EventPrepareMiss:
		fmt.Fprintf(p.w, "[%s %d/%d] %s: device aged from scratch (cache miss, %v)\n",
			ev.Experiment, ev.Index+1, ev.Variants, ev.Variant, wall)
	case experiment.EventVariantDone:
		status := "done"
		if ev.Err != nil {
			status = "FAILED: " + ev.Err.Error()
		}
		fmt.Fprintf(p.w, "[%s %d/%d] %s: %s (%v)\n",
			ev.Experiment, ev.Index+1, ev.Variants, ev.Variant, status, wall)
	case experiment.EventVariantCanceled:
		fmt.Fprintf(p.w, "[%s %d/%d] %s: canceled\n", ev.Experiment, ev.Index+1, ev.Variants, ev.Variant)
	case experiment.EventVariantFailed:
		fmt.Fprintf(p.w, "[%s %d/%d] %s: PANIC: %v (%v)\n",
			ev.Experiment, ev.Index+1, ev.Variants, ev.Variant, ev.Err, wall)
	case experiment.EventExperimentDone:
		if ev.Err != nil {
			fmt.Fprintf(p.w, "[%s] %v\n", ev.Experiment, ev.Err)
		} else {
			fmt.Fprintf(p.w, "[%s] complete (%v)\n", ev.Experiment, wall)
		}
	}
}

// sweepOutput controls result rendering shared by sweep and spec.
type sweepOutput struct {
	csv, chart, timeline *bool
}

func addSweepOutput(fs *flag.FlagSet) *sweepOutput {
	o := &sweepOutput{}
	o.csv = fs.Bool("csv", false, "also print CSV")
	o.chart = fs.Bool("chart", true, "print throughput chart per experiment")
	o.timeline = fs.Bool("timeline", false, "record and print completions-over-time sparklines")
	return o
}

// interruptContext returns a context canceled by the first interrupt; a
// second interrupt hard-exits with code 130 — the escape hatch when a sweep
// refuses to drain. The returned stop func releases the signal handler.
func interruptContext(stderr io.Writer) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			cancel()
		case <-done:
			return
		}
		select {
		case <-sigc:
			fmt.Fprintln(stderr, "eagletree: second interrupt, exiting immediately")
			os.Exit(130)
		case <-done:
		}
	}()
	var once sync.Once
	return ctx, func() {
		once.Do(func() {
			cancel()
			signal.Stop(sigc)
			close(done)
		})
	}
}

// renderResults prints one experiment's result set: table, chart, timelines,
// the E12 game score, CSV. The in-process and distributed sweeps share this
// renderer, so their stdout is comparable byte for byte.
func renderResults(stdout io.Writer, res experiment.Results, out *sweepOutput) {
	fmt.Fprintln(stdout, res.Table())
	if *out.chart {
		fmt.Fprintln(stdout, res.Chart(experiment.MetricThroughput, 40))
	}
	if *out.timeline {
		fmt.Fprintln(stdout, res.Timelines())
	}
	if res.Name == "E12-game" {
		printGame(stdout, res)
	}
	if *out.csv {
		fmt.Fprintln(stdout, res.CSV())
	}
}

// sweepJob is one execution of one document under one seed. Jobs are grouped
// per selected experiment: a multi-seed sweep runs the group's jobs in seed
// order, then prints one replication summary over the group's captured rows.
type sweepJob struct {
	doc  spec.Experiment
	def  experiment.Definition // doc compiled: the in-process path runs it
	sink *resultstore.Sink     // nil when rows are not being captured
}

// jobObserver composes the live progress stream with the job's result sink.
func jobObserver(j sweepJob, progress bool, stderr io.Writer) experiment.Observer {
	var obs []experiment.Observer
	if progress {
		obs = append(obs, progressObserver{w: stderr})
	}
	if j.sink != nil {
		obs = append(obs, j.sink)
	}
	return experiment.MultiObserver(obs...)
}

// finishJob persists and collects one completed job's captured rows.
func finishJob(j sweepJob, persist bool, collected *[]resultstore.Row, stderr io.Writer) int {
	if j.sink == nil {
		return 0
	}
	if persist {
		if err := j.sink.Flush(); err != nil {
			return fail(stderr, err)
		}
	}
	*collected = append(*collected, j.sink.Rows()...)
	return 0
}

// runJob runs one sweep job, streaming its events to obs.
type runJob func(ctx context.Context, j sweepJob, obs experiment.Observer) (experiment.Results, error)

// runSweepGroups executes job groups under an interrupt-aware context, each
// job through run, and renders their results: each job's rows flow through
// its sink, and a group that replicated over several seeds closes with a
// confidence-interval summary. The first ^C cancels mid-sweep: workers
// drain, the partial row prefix prints, and the process exits 130.
func runSweepGroups(groups [][]sweepJob, persist bool, run runJob, out *sweepOutput, progress bool, stdout, stderr io.Writer) int {
	ctx, stop := interruptContext(stderr)
	defer stop()
	for _, jobs := range groups {
		var collected []resultstore.Row
		for _, j := range jobs {
			res, err := run(ctx, j, jobObserver(j, progress, stderr))
			if err != nil {
				if errors.Is(err, experiment.ErrCanceled) {
					if len(res.Rows) > 0 {
						fmt.Fprintln(stdout, res.Table())
					}
					fmt.Fprintf(stderr, "eagletree: %v\n", err)
					return 130
				}
				return fail(stderr, err)
			}
			if code := finishJob(j, persist, &collected, stderr); code != 0 {
				return code
			}
			renderResults(stdout, res, out)
		}
		if len(jobs) > 1 {
			if code := printReplication(stdout, stderr, collected); code != 0 {
				return code
			}
		}
	}
	return 0
}

// inProcess runs each job's compiled definition through the in-process
// Runner.
func inProcess(opts experiment.Options) runJob {
	return func(ctx context.Context, j sweepJob, obs experiment.Observer) (experiment.Results, error) {
		o := opts
		o.Observer = obs
		return experiment.New(o).Run(ctx, j.def)
	}
}

// distributed shards each job's variant grid over worker processes —
// -distribute N local subprocesses of this same binary, and/or -connect'ed
// TCP workers — and returns the deterministically merged results, which
// render through the same renderer as the in-process path. The coordinator
// is the single store writer: workers stream rows back, the merge orders
// them, and each job's sink persists exactly what a sequential run would
// have.
func distributed(distribute int, connect, cacheDir string, timeline, progress bool, stderr io.Writer) (runJob, error) {
	base := fabric.Options{
		Connect:      splitList(connect),
		WorkerStderr: stderr,
	}
	if distribute > 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("resolving worker binary: %w", err)
		}
		argv := []string{exe, "worker", "-serve=stdio", "-quiet"}
		if cacheDir != "" {
			argv = append(argv, "-state-cache", cacheDir)
		}
		base.Workers = distribute
		base.Command = argv
	}
	if cacheDir != "" {
		base.Cache = experiment.NewStateCache(cacheDir)
	}
	if timeline {
		base.SeriesBucket = 20 * sim.Millisecond
	}
	if progress {
		base.Logf = func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	}
	return func(ctx context.Context, j sweepJob, obs experiment.Observer) (experiment.Results, error) {
		opts := base
		opts.Observer = obs
		return fabric.Run(ctx, j.doc, opts)
	}, nil
}

// printReplication renders the cross-seed replication summary: per variant,
// mean ± 95% confidence half-width of the headline metrics over the sweep's
// seeds. Group order follows the variant grid (rows are collected in grid
// order per seed), so the summary lines up with the per-seed tables above it.
func printReplication(stdout, stderr io.Writer, rows []resultstore.Row) int {
	if len(rows) == 0 {
		return 0
	}
	tab := query.FromRows(rows)
	g, err := tab.GroupBy([]string{"experiment", "label"}, []query.Agg{
		{Fn: "count"},
		{Fn: "mean", Col: "throughput_iops"}, {Fn: "ci95", Col: "throughput_iops"},
		{Fn: "mean", Col: "write_mean_ns"}, {Fn: "ci95", Col: "write_mean_ns"},
		{Fn: "mean", Col: "write_amp"}, {Fn: "ci95", Col: "write_amp"},
	})
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, "replication summary (mean and 95% CI half-width across seeds):")
	fmt.Fprintln(stdout, g.Text())
	return 0
}

// parseSeeds parses the -seeds list. Seed 0 is rejected rather than accepted:
// the runtime normalizes 0 to 1, so an explicit 0 would silently collide with
// an explicit 1 in the store.
func parseSeeds(s string) ([]uint64, error) {
	parts := splitList(s)
	seeds := make([]uint64, 0, len(parts))
	seen := make(map[uint64]bool, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %q is not an unsigned integer seed", p)
		}
		if v == 0 {
			return nil, fmt.Errorf("-seeds: seed 0 is the runtime default alias for 1; say 1 explicitly")
		}
		if seen[v] {
			return nil, fmt.Errorf("-seeds: seed %d repeats", v)
		}
		seen[v] = true
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// splitList parses a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var parts []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// parseScale maps the -scale flag to a suite scale. Anything but the two
// names is an error: a typo must not print small-scale numbers under a
// full-scale belief.
func parseScale(s string) (experiment.Scale, error) {
	switch s {
	case "small":
		return experiment.Small, nil
	case "full":
		return experiment.Full, nil
	}
	return 0, fmt.Errorf("-scale %q: want small or full", s)
}

// cmdSweep runs the predefined design-space experiments (E1–E14) — or any
// spec document via -spec — and prints their result tables and charts.
func cmdSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eagletree sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		run      = fs.String("run", "all", "experiments to run: e1..e14, comma-separated | all")
		specFile = fs.String("spec", "", "run an experiment spec file instead of the predefined suite")
		scale    = fs.String("scale", "small", "workload scale: small | full")
		workers  = fs.Int("workers", 0, "parallel variant workers (0 = GOMAXPROCS, 1 = sequential)")
		cacheDir = fs.String("state-cache", "", "persist prepared device states under this directory; repeated sweeps restore instead of re-aging")
		fresh    = fs.Bool("fresh", false, "disable prepared-state reuse: every variant ages its own device (the slow reference path)")
		progress = fs.Bool("progress", true, "stream live per-variant progress (cache provenance, timings) to stderr")

		distribute = fs.Int("distribute", 0, "shard variants across N worker subprocesses of this binary (0 = run in-process)")
		connect    = fs.String("connect", "", "also lease variants to remote workers at these comma-separated host:port addresses (see 'eagletree worker -listen')")

		seeds      = fs.String("seeds", "", "replicate the sweep under these comma-separated seeds; more than one adds a 95%-CI replication summary")
		resultsDir = fs.String("results", "", "append every completed variant's row to the result store in this directory (see 'eagletree results')")
		label      = fs.String("label", "", "provenance label stored with -results rows, e.g. a commit hash (default \"unlabeled\")")
	)
	out := addSweepOutput(fs)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := prof.start(); err != nil {
		return fail(stderr, err)
	}
	defer prof.stop(stderr)

	sc, err := parseScale(*scale)
	if err != nil {
		return fail(stderr, err)
	}
	opts := experiment.Options{Workers: *workers, NoPrepareCache: *fresh}
	if *cacheDir != "" && !*fresh {
		// One cache across the whole invocation: experiments sharing a
		// prepared state (same geometry, preparation and seed) reuse it, and
		// the directory carries it to the next invocation.
		opts.Cache = experiment.NewStateCache(*cacheDir)
	}

	var selected []spec.Experiment
	if *specFile != "" {
		// A spec document carries its own selection and scale; silently
		// ignoring -run/-scale would let "sweep -spec x.json -scale full"
		// print small-scale numbers under a full-scale belief.
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "run" || f.Name == "scale" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fail(stderr, fmt.Errorf("-%s does not apply to -spec (the document is self-contained)", conflict))
		}
		doc, err := spec.ReadFile(*specFile)
		if err != nil {
			return fail(stderr, err)
		}
		selected = []spec.Experiment{doc}
	} else {
		// Every selector must name an experiment: running e3 and silently
		// dropping a mistyped e99 would pass for a complete sweep.
		all := false
		want := map[string]bool{}
		var unknown []string
		for _, sel := range splitList(*run) {
			if strings.EqualFold(sel, "all") {
				all = true
			} else if e, ok := experiment.SuiteSpec(sel, sc); ok {
				want[e.Name] = true
			} else {
				unknown = append(unknown, sel)
			}
		}
		if len(unknown) > 0 {
			return fail(stderr, fmt.Errorf("no experiment matches %s (try 'eagletree list')", strings.Join(unknown, ", ")))
		}
		for _, e := range experiment.SuiteSpecs(sc) {
			if all || want[e.Name] {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			return fail(stderr, fmt.Errorf("-run selects no experiment (try 'eagletree list')"))
		}
	}

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return fail(stderr, err)
	}
	var store *resultstore.Store
	commit := *label
	if *resultsDir != "" {
		if store, err = resultstore.Open(*resultsDir); err != nil {
			return fail(stderr, err)
		}
		if commit == "" {
			commit = "unlabeled"
		}
	} else if commit != "" {
		return fail(stderr, fmt.Errorf("-label labels stored rows; it needs -results"))
	}

	// Rows are captured whenever they are persisted or summarized; a plain
	// sweep skips the sinks entirely and its output is byte-identical to a
	// sweep predating them.
	capture := store != nil || len(seedList) > 1
	runSeeds := seedList
	if len(runSeeds) == 0 {
		runSeeds = []uint64{0} // the document's own seed
	}
	// Each job's document is compiled once: the compile validates it (a bad
	// -spec file fails here, before anything runs), and the sink and the
	// in-process Runner read it.
	groups := make([][]sweepJob, 0, len(selected))
	for _, e := range selected {
		jobs := make([]sweepJob, 0, len(runSeeds))
		for _, seed := range runSeeds {
			doc := e
			if seed != 0 {
				doc.Base.Seed = seed
			}
			j := sweepJob{doc: doc}
			if j.def, err = experiment.FromSpec(doc); err != nil {
				return fail(stderr, err)
			}
			if *out.timeline {
				j.def.SeriesBucket = 20 * sim.Millisecond
			}
			if capture {
				if j.sink, err = resultstore.NewSinkFor(store, doc, j.def, commit); err != nil {
					return fail(stderr, err)
				}
			}
			jobs = append(jobs, j)
		}
		groups = append(groups, jobs)
	}

	if *distribute > 0 || *connect != "" {
		// The fabric hands workers the spec documents themselves; flags that
		// tune the in-process runner have no meaning there, and ignoring them
		// would run something other than what was asked for.
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workers" || f.Name == "fresh" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fail(stderr, fmt.Errorf("-%s does not apply to a distributed sweep (each worker runs one variant at a time)", conflict))
		}
		run, err := distributed(*distribute, *connect, *cacheDir, *out.timeline, *progress, stderr)
		if err != nil {
			return fail(stderr, err)
		}
		return runSweepGroups(groups, store != nil, run, out, *progress, stdout, stderr)
	}
	return runSweepGroups(groups, store != nil, inProcess(opts), out, *progress, stdout, stderr)
}

// cmdList prints the experiment index straight from the suite's spec data,
// including each experiment's expanded variant count.
func cmdList(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eagletree list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "small", "workload scale: small | full")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, err := parseScale(*scale)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%-4s %-22s %8s %-42s %s\n", "ID", "NAME", "VARIANTS", "VARIES", "SHOWS")
	for _, e := range experiment.SuiteSpecs(sc) {
		id := strings.SplitN(e.Name, "-", 2)[0]
		variants, err := e.ExpandVariants()
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "%-4s %-22s %8d %-42s %s\n", id, e.Name, len(variants), e.Varies, e.Doc)
	}
	return 0
}

// cmdSpec runs experiment spec documents: a single-run document prints the
// run report through the flag mode's path (bit-identical to the flags that
// dumped it), a variant grid prints its table; both run on the Runner's
// stacks under the same options.
func cmdSpec(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eagletree spec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workers  = fs.Int("workers", 0, "parallel variant workers for grids (0 = GOMAXPROCS)")
		cacheDir = fs.String("state-cache", "", "persist prepared device states under this directory")
		fresh    = fs.Bool("fresh", false, "disable prepared-state reuse")
		progress = fs.Bool("progress", true, "stream live per-variant progress to stderr (grids)")
		validate = fs.Bool("validate", false, "validate the documents and exit without running")
	)
	out := addSweepOutput(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: eagletree spec [flags] FILE...")
		return 2
	}
	for _, path := range fs.Args() {
		// flag.Parse stops at the first positional, so a trailing flag would
		// silently be read as a file name.
		if strings.HasPrefix(path, "-") {
			return fail(stderr, fmt.Errorf("flags must precede FILE arguments (got %q after a file)", path))
		}
	}
	opts := experiment.Options{Workers: *workers, NoPrepareCache: *fresh}
	if *cacheDir != "" && !*fresh {
		opts.Cache = experiment.NewStateCache(*cacheDir)
	}
	for _, path := range fs.Args() {
		doc, err := spec.ReadFile(path)
		if err != nil {
			return fail(stderr, err)
		}
		def, err := experiment.FromSpec(doc)
		if err != nil {
			return fail(stderr, err)
		}
		if *validate {
			fmt.Fprintf(stdout, "%s: %s valid (%d variant(s))\n", path, doc.Name, len(def.Variants))
			continue
		}
		if len(def.Variants) > 1 {
			if *out.timeline {
				def.SeriesBucket = 20 * sim.Millisecond
			}
			fmt.Fprintf(stdout, "eagletree: spec %s: experiment %s (%d variants)\n\n", path, doc.Name, len(def.Variants))
			if code := runSweepGroups([][]sweepJob{{{def: def}}}, false, inProcess(opts), out, *progress, stdout, stderr); code != 0 {
				return code
			}
			continue
		}
		header := fmt.Sprintf("eagletree: spec %s: %s / %s", path, doc.Name, def.Variants[0].Label)
		if code := executeSingle(def, runtimeOpts{runner: opts}, nil, header, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

func printGame(w io.Writer, res experiment.Results) {
	if len(res.Rows) == 0 {
		fmt.Fprintln(w, "game: no result rows to score")
		return
	}
	weights := experiment.DefaultGameWeights()
	best := res.Rows[0]
	bestScore := weights.Score(best.Report)
	for _, r := range res.Rows {
		score := weights.Score(r.Report)
		fmt.Fprintf(w, "  score %10.1f  %s\n", score, r.Label)
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	fmt.Fprintf(w, "optimal combination: %s\n\n", best.Label)
}
