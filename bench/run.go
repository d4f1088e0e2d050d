package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// result is everything one run of one workload measured. The contract's last
// line carries Correct, Attempted, Failed and Metrics; the rest goes to -out
// and to the printed report.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Passes       int                `json:"passes"`
	TailPct      float64            `json:"tail_pct"`
	WallQ        [3]float64         `json:"wall_s_quartiles"`
	OpSamples    int                `json:"op_samples"`
	BytesPerRow  float64            `json:"store_bytes_per_row,omitempty"` // corpus_query, grid_sweep
	FailRatio    float64            `json:"fail_ratio"`
	Digest       string             `json:"report_digest"`
	Golden       string             `json:"golden"` // "checked", or why not
	Shares       map[string]float64 `json:"layer_shares,omitempty"`
	KernelAllocs map[string]float64 `json:"kernel_allocs_per_op,omitempty"`
	FirstFailure string             `json:"first_failure,omitempty"`
	NProc        int                `json:"nproc"`
	GoVersion    string             `json:"go_version"`
	Model        string             `json:"model"`
}

// readGolden indexes the golden dump's lines for one seed by "seed=N
// experiment label". It returns nil when the dump has no line for the seed.
func readGolden(path string, seed uint64) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prefix := fmt.Sprintf("seed=%d ", seed)
	var golden map[string]string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if golden == nil {
			golden = map[string]string{}
		}
		golden[goldenKey(line)] = line
	}
	return golden, sc.Err()
}

// goldenKey cuts a row line before its report: "seed=N experiment label".
func goldenKey(line string) string {
	if i := strings.Index(line, " core.Report{"); i >= 0 {
		return line[:i]
	}
	return line
}

// experimentOf returns the experiment name of a golden key.
func experimentOf(key string) string {
	fields := strings.SplitN(key, " ", 3)
	if len(fields) < 2 {
		return ""
	}
	return fields[1]
}

// checker decides which operations produced wrong output. The first pass it
// sees becomes the reference every later pass must equal byte for byte; rows
// of the experiments golden.txt covers must, at a golden seed, also equal
// their golden lines.
type checker struct {
	golden    map[string]string
	covered   map[string]bool // experiment names golden has rows of
	reference []string
	failed    int
	first     string
}

func (c *checker) fail(msg string) {
	c.failed++
	if c.first == "" {
		c.first = msg
	}
}

func (c *checker) check(lines []string) {
	if c.golden != nil {
		if c.covered == nil {
			c.covered = map[string]bool{}
			for key := range c.golden {
				c.covered[experimentOf(key)] = true
			}
		}
		for _, line := range lines {
			// Golden lines end at the report; identity lines may carry more.
			row, _, _ := strings.Cut(line, " timeline=")
			key := goldenKey(row)
			switch want, ok := c.golden[key]; {
			case ok && want != row:
				c.fail("golden mismatch: " + key)
			case !ok && c.covered[experimentOf(key)]:
				c.fail("no golden line for " + key)
			}
		}
	}
	if c.reference == nil {
		c.reference = lines
		return
	}
	if len(lines) != len(c.reference) {
		c.fail(fmt.Sprintf("pass produced %d outputs, reference has %d", len(lines), len(c.reference)))
		return
	}
	for i := range lines {
		if lines[i] != c.reference[i] {
			c.fail("output differs from the reference pass: " + firstLine(lines[i]))
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	if len(line) > 120 {
		line = line[:120]
	}
	return line
}

func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// setUp opens the workload — several times when that is cheap, so that
// setup_s is a median and not one noisy reading — and runs the warm-up pass,
// which is excluded from timing and charged to set-up. The E13 trace capture
// is paid once per process, by the first open; it is added back beside the
// median so that set-up is charged for it.
func setUp(w workloadDef, e *env, chk *checker) (inst *instance, setupS, captureS float64, err error) {
	var opens []float64
	var spent float64
	for len(opens) < 3 && (len(opens) == 0 || spent < 2) {
		begin := time.Now()
		if inst, err = w.open(e); err != nil {
			return nil, 0, 0, err
		}
		s := time.Since(begin).Seconds()
		opens = append(opens, s-inst.captureS)
		spent += s
		captureS = math.Max(captureS, inst.captureS)
	}
	begin := time.Now()
	out, _, err := inst.pass(nil, &opClock{})
	if err != nil {
		return nil, 0, 0, err
	}
	warmup := time.Since(begin).Seconds()
	chk.golden = inst.golden
	chk.reference = inst.reference
	chk.check(out.lines)
	return inst, median(opens) + captureS + warmup, captureS, nil
}

// measure is the untraced run: set-up, then timed passes by one client until
// the time budget is spent, then the end-to-end metrics.
func measure(w workloadDef, e *env, seconds float64) (*result, error) {
	res := newResult(w, e, false)
	chk := &checker{}
	inst, setupS, _, err := setUp(w, e, chk)
	if err != nil {
		return nil, err
	}

	var (
		clk                    opClock
		walls, allocMB, allocK []float64
		storeRows              int
		storeBytes             int64
		ms                     runtime.MemStats
	)
	for len(walls) < e.sz.minPasses || sum(walls) < seconds {
		// Every pass starts from a collected heap, so where the collector's
		// cycles fall inside a pass is the same from pass to pass and from
		// run to run. Left to itself the heap of the short-pass workloads
		// settles into one of two regimes (115 or 155 MB resident on
		// warm_restore, the smaller one 10 % faster) at the toss of a coin.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		bytes0, mallocs0 := ms.TotalAlloc, ms.Mallocs
		out, wall, err := inst.pass(nil, &clk)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms)
		walls = append(walls, wall.Seconds())
		allocMB = append(allocMB, float64(ms.TotalAlloc-bytes0)/1e6)
		allocK = append(allocK, float64(ms.Mallocs-mallocs0)/1e3)
		res.Attempted += out.ops
		storeRows += out.storeRows
		storeBytes += out.storeBytes
		chk.check(out.lines)
	}
	finish(res, chk)

	q1, q2, q3 := quartiles(walls)
	res.Passes, res.WallQ, res.OpSamples = len(walls), [3]float64{q1, q2, q3}, len(clk.ms)
	// A sweep's rows are its variants; where rows went through the result
	// store, the rows are the ones decoded and queried back.
	rows := res.Attempted
	if storeRows > 0 {
		rows = storeRows
		res.BytesPerRow = float64(storeBytes) / float64(storeRows)
	}
	res.Metrics, err = fill(endToEnd, map[string]float64{
		"setup_s":           setupS,
		"wall_s":            q2,
		"ops_per_s":         float64(res.Attempted) / sum(walls),
		"rows_per_s":        float64(rows) / sum(walls),
		"op_ms_p50":         percentile(clk.ms, 50),
		"op_ms_tail":        percentile(clk.ms, w.tailPct),
		"alloc_mb_per_pass": median(allocMB),
		"allocs_k_per_pass": median(allocK),
		"peak_rss_mb":       peakRSSMB(),
	})
	return res, err
}

func newResult(w workloadDef, e *env, traced bool) *result {
	return &result{
		Workload: w.name, Seed: e.seed, Traced: traced, TailPct: w.tailPct,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		// The repo holds no hardware reference, so no accuracy figure is given;
		// what is checked is that simulated output does not change.
		Model: "unvalidated",
	}
}

// finish turns the checker's verdict into the result's correctness fields.
func finish(res *result, chk *checker) {
	res.Failed = chk.failed
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = chk.failed == 0
	res.FirstFailure = chk.first
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	res.Digest = digest(chk.reference)
	switch {
	case chk.golden != nil:
		res.Golden = "checked"
	default:
		res.Golden = "not applicable: generated input or a seed golden.txt does not cover; passes checked against each other"
	}
}
