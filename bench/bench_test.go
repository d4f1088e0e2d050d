package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json's shape, the keys the contract fixes.
type benchmarkJSON struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []namedWhy  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables the
// program emits from: same workloads, same metrics, units, directions and
// bounds, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the program's default is %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %q needs a unit and a direction: %+v", d.Name, d)
		}
	}
}

// checkEmitted asserts a run emitted every declared metric exactly once (the
// metrics object is a map, so once at most), with the declared unit.
func checkEmitted(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d: %s", res.Workload, res.Correct, res.Failed, res.Attempted, res.FirstFailure)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s: emitted %+v (present %v), declared unit %q", res.Workload, d.Name, v, ok, d.Unit)
		}
	}
}

// TestSmoke runs every workload once at its tiny size, untraced and traced —
// one pass each, every kernel at 100 operations — so that `go test` keeps
// the benchmark compiling and honest without measuring anything.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e := &env{root: "..", tmp: t.TempDir(), seed: 3, sz: tinySizes()}
			res, err := measure(w, e, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; the driver bounds every one on every workload", w.name, d.Name, res.Metrics[d.Name].Value)
				}
			}

			e = &env{root: "..", tmp: t.TempDir(), seed: 3, sz: tinySizes(), traced: true}
			spans := filepath.Join(e.tmp, "spans.jsonl")
			if res, err = traceRun(w, e, spans); err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, perLayer)
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("%s: no spans written: %v", w.name, err)
			}
		})
	}
}

// TestTraceCaptureIsChargedToSetUp: the first e13replay thread of a process
// pays the reference-trace capture, inside captureTraces and nowhere later.
func TestTraceCaptureIsChargedToSetUp(t *testing.T) {
	paths := []string{filepath.Join("..", "specs", "e13.json"), filepath.Join("..", "specs", "e5.json")}
	first, err := captureTraces(paths)
	if err != nil {
		t.Fatal(err)
	}
	again, err := captureTraces(paths)
	if err != nil {
		t.Fatal(err)
	}
	if first <= 0 || again >= first {
		t.Errorf("capture cost %v s the first time and %v s the second; the first must pay for the memoized trace", first, again)
	}
}

// TestCorruptedGoldenLineIsAFailedOperation: a row that differs from its
// golden line, or has none, fails exactly that operation.
func TestCorruptedGoldenLineIsAFailedOperation(t *testing.T) {
	lines := []string{
		"seed=7 E4-wear-leveling wl=off core.Report{Duration:1, Throughput:2}",
		"seed=7 E4-wear-leveling wl=static core.Report{Duration:3, Throughput:4}",
		"seed=7 E8-temperature oracle core.Report{Duration:5, Throughput:6}",
		"seed=7 E8-temperature detector core.Report{Duration:7, Throughput:8}",
		"seed=7 bench-fault-refire fault=none core.Report{Duration:9, Throughput:1}",
	}
	golden := map[string]string{}
	for _, l := range lines[:4] { // the generated document has no golden lines
		golden[goldenKey(l)] = l
	}
	chk := &checker{golden: golden}
	chk.check(lines)
	if chk.failed != 0 {
		t.Fatalf("matching lines failed %d operations: %s", chk.failed, chk.first)
	}

	golden[goldenKey(lines[1])] = strings.Replace(lines[1], "Duration:3", "Duration:30", 1)
	chk = &checker{golden: golden}
	chk.check(lines)
	if chk.failed != 1 || !strings.Contains(chk.first, "wl=static") {
		t.Fatalf("one corrupted golden line must fail one operation, failed %d: %s", chk.failed, chk.first)
	}

	delete(golden, goldenKey(lines[2]))
	chk = &checker{golden: golden}
	chk.check(lines)
	if chk.failed != 2 {
		t.Fatalf("a row of a covered experiment without a golden line must fail too, failed %d", chk.failed)
	}

	// A later pass that differs from the first fails the operations that differ.
	chk = &checker{}
	chk.check(lines)
	changed := append([]string(nil), lines...)
	changed[0] += "x"
	chk.check(changed)
	if chk.failed != 1 {
		t.Fatalf("one changed row must fail one operation, failed %d", chk.failed)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// which the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, Python gives 1 2 3", q1, q2, q3)
	}
}
