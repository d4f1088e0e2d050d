// Command bench is EagleTree's one benchmark for the whole path: spec
// document → prepared state → simulation → Report → stored row → query.
//
// With -workload it runs that workload in this process and prints, as its
// last line, the result object BENCHMARK.json's contract asks for. Without
// it, it runs all six workloads, each in a child process of its own so that
// memory high-water marks do not bleed from one into the next.
//
// Every number is taken from outside the program: wall clock around calls
// into public functions, runtime.MemStats deltas, /proc/self/status, byte
// counts on a wrapped connection, and the public accessors of stacks the
// benchmark drives itself. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 10

// ballast keeps the garbage collector's heap goal from collapsing between
// cycles. The sweep workloads hold a few megabytes live and allocate tens of
// megabytes per variant, so without it the goal swings between 10 and 33 MB
// from one cycle to the next, the runtime returns the difference to the OS
// and faults it back in, and whether a pass pays for three or for seven
// thousand page faults (several microseconds each in a small VM) flips with
// the seed: warm_restore moved by a fifth between seeds, by 3 % with the
// ballast. It is never written, so it costs address space, not memory; the
// price is that the collector's first cycle waits until the heap has grown by
// the ballast's size, so peak_rss_mb has a floor near 90 MB.
var ballast = make([]byte, 64<<20)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload in this process: "+strings.Join(workloadNames(), " | ")+" (default: all, one child process each)")
		seed     = flag.Uint64("seed", 7, "inputs are generated from this seed; 7 and 12345 also check specs/full/golden.txt")
		seconds  = flag.Float64("seconds", runSeconds, "timed passes run until this many seconds are measured (never fewer than three passes)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer spans, counts and kernels instead of end-to-end metrics")
		out      = flag.String("out", "", "also write the full results as JSON to this file")
		traceOut = flag.String("trace-out", "", "traced run: write spans as JSON lines here (default .bench_build/spans-WORKLOAD.jsonl)")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times on the same build and compare the medians against the bounds")
	)
	flag.Parse()
	if *seed == 0 {
		fail(fmt.Errorf("seed 0 is the simulator's alias for 1; say 1"))
	}
	// One client, no worker pool: the generator never has more than two
	// processors, so a result does not depend on how many the host has.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	root, err := findRoot()
	if err != nil {
		fail(err)
	}
	build := filepath.Join(root, ".bench_build")

	if *name == "" {
		if err := suite(build, *seed, *seconds, *trace == 1, *repeat, *out); err != nil {
			fail(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), w.name+"-")
	if err != nil {
		fail(err)
	}
	e := &env{root: root, tmp: tmp, seed: *seed, sz: fullSizes(), traced: *trace == 1}
	var res *result
	if e.traced {
		if *traceOut == "" {
			*traceOut = filepath.Join(build, "spans-"+w.name+".jsonl")
		}
		res, err = traceRun(w, e, *traceOut)
	} else {
		res, err = measure(w, e, *seconds)
	}
	os.RemoveAll(tmp)
	if err != nil {
		fail(err)
	}
	runtime.KeepAlive(ballast)
	report(os.Stdout, res)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fail(err)
		}
	}
	// The contract's last line: exactly these four keys.
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(last))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// findRoot locates the repository root — where specs/full lives — from the
// working directory: the root itself under the driver, bench/ under
// `go run -C bench .`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "specs", "full")); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("specs/full not found: run from the repository root or from bench/")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every metric by name with its unit, then what qualifies them.
func report(w *os.File, res *result) {
	kind := "end-to-end, tracing off"
	defs := endToEnd
	if res.Traced {
		kind, defs = "per-layer, traced", perLayer
	}
	fmt.Fprintf(w, "== %s  seed=%d  (%s; host time unless the name says sim; model %s)\n", res.Workload, res.Seed, kind, res.Model)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		line := fmt.Sprintf("%-32s %16.6g %-6s", d.Name, v.Value, v.Unit)
		if a, ok := res.KernelAllocs[d.Name]; ok {
			line += fmt.Sprintf("  allocs_per_op=%.3g", a)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf("  bound=%.0f%%", d.Bound*100)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if !res.Traced {
		fmt.Fprintf(w, "%-32s %16d        (timed passes; wall_s quartiles %.4g / %.4g / %.4g)\n", "passes", res.Passes, res.WallQ[0], res.WallQ[1], res.WallQ[2])
		fmt.Fprintf(w, "%-32s %16d        (op_ms_tail is p%g)\n", "op_samples", res.OpSamples, res.TailPct)
		if res.BytesPerRow > 0 {
			fmt.Fprintf(w, "%-32s %16.6g B/row\n", "store_bytes_per_row", res.BytesPerRow)
		}
	}
	names := make([]string, 0, len(res.Shares))
	for n := range res.Shares {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %15.1f%%        (share of the traced pass)\n", "share "+n, 100*res.Shares[n])
	}
	fmt.Fprintf(w, "%-32s %16.6g        (ops_failed %d / ops_total %d)\n", "fail_ratio", res.FailRatio, res.Failed, res.Attempted)
	fmt.Fprintf(w, "%-32s %s\n", "report_digest", res.Digest)
	fmt.Fprintf(w, "%-32s %s\n", "golden", res.Golden)
	fmt.Fprintf(w, "%-32s %s\n", "go_version", res.GoVersion)
	fmt.Fprintf(w, "%-32s %d\n", "nproc", res.NProc)
	if res.FirstFailure != "" {
		fmt.Fprintf(w, "%-32s %s\n", "first_failure", res.FirstFailure)
	}
}

// child runs one workload in a process of its own and reads its results back.
func child(build, name string, seed uint64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(filepath.Join(build, "tmp"), name+"-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", f.Name()}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stderr // the child's report scrolls by; the suite prints its own
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	res := &result{}
	return res, json.Unmarshal(data, res)
}
