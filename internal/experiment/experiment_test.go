package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"eagletree/internal/spec"
)

func smallBase() spec.Config {
	return spec.Config{
		Geometry:      spec.Geometry{Channels: 1, LUNsPerChannel: 2, BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 4096},
		Overprovision: 0.2,
		WL:            spec.NamedRef("off"),
		OS:            spec.OSSpec{QueueDepth: 8},
		Seed:          3,
	}
}

func channelsDoc() spec.Experiment {
	return spec.Experiment{
		Name: "channels",
		Base: smallBase(),
		Variants: []spec.Variant{
			{Label: "channels=1", X: 1, Set: map[string]any{"geometry.channels": 1}},
			{Label: "channels=4", X: 4, Set: map[string]any{"geometry.channels": 4}},
		},
		Workload: []spec.Thread{{Type: "seqwrite", Params: map[string]any{"from": 0, "count": 400, "depth": 16}}},
	}
}

// compile is FromSpec for a document the test expects to be valid.
func compile(t testing.TB, doc spec.Experiment) Definition {
	t.Helper()
	def, err := FromSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func sweepChannels(t testing.TB) Definition { return compile(t, channelsDoc()) }

func TestRunSweep(t *testing.T) {
	res, err := New(Options{}).Run(context.Background(), sweepChannels(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	t1 := res.Rows[0].Report.Throughput
	t4 := res.Rows[1].Report.Throughput
	if t4 <= t1 {
		t.Fatalf("4 channels (%f IOPS) not faster than 1 (%f IOPS)", t4, t1)
	}
}

// TestRunWithPreparation: preparation is either a declared Prep, restored
// from its snapshot, or written into the workload. Either way the report
// counts only the measured reads, never the declared preparation's writes.
func TestRunWithPreparation(t *testing.T) {
	reads := spec.Thread{Type: "randread", Params: map[string]any{"from": 0, "space": "n", "count": 50, "depth": 4}}
	doc := spec.Experiment{Name: "declared", Base: smallBase(), Prep: &spec.Prep{FillDepth: 8},
		Workload: []spec.Thread{reads}}
	res, err := New(Options{}).Run(context.Background(), compile(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Rows[0].Report
	if rep.WriteLatency.Count != 0 {
		t.Fatalf("measurement saw %d prep writes", rep.WriteLatency.Count)
	}
	if rep.ReadLatency.Count != 50 {
		t.Fatalf("measured %d reads, want 50", rep.ReadLatency.Count)
	}
}

func TestRunRejectsEmptyVariants(t *testing.T) {
	if _, err := New(Options{}).Run(context.Background(), Definition{Name: "empty"}); err == nil {
		t.Fatal("empty variant list accepted")
	}
}

func TestTableAndCSVAndChart(t *testing.T) {
	res, err := New(Options{}).Run(context.Background(), sweepChannels(t))
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	if !strings.Contains(table, "channels=4") || !strings.Contains(table, "throughput_iops") {
		t.Fatalf("table missing content:\n%s", table)
	}
	csv := res.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2 rows:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "variant,x,throughput_iops") {
		t.Fatalf("csv header wrong: %s", lines[0])
	}
	chart := res.Chart(MetricThroughput, 30)
	if !strings.Contains(chart, "█") {
		t.Fatalf("chart has no bars:\n%s", chart)
	}
}

func TestBestWorst(t *testing.T) {
	res, err := New(Options{}).Run(context.Background(), sweepChannels(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best(MetricThroughput).Label != "channels=4" {
		t.Fatalf("best throughput variant %q", res.Best(MetricThroughput).Label)
	}
	if res.Worst(MetricThroughput).Label != "channels=1" {
		t.Fatalf("worst throughput variant %q", res.Worst(MetricThroughput).Label)
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape(`a,b`); got != `"a,b"` {
		t.Errorf("csvEscape(a,b) = %s", got)
	}
	if got := csvEscape(`a"b`); got != `"a""b"` {
		t.Errorf("csvEscape quote = %s", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Errorf("csvEscape(plain) = %s", got)
	}
}

// TestRunWorkersDeterministic asserts the parallel runner's contract: for
// any worker count, result rows are identical — bit for bit — to the
// sequential loop, across seeds.
func TestRunWorkersDeterministic(t *testing.T) {
	for _, seed := range []uint64{3, 99} {
		doc := channelsDoc()
		doc.Base.Seed = seed
		def := compile(t, doc)
		seq, err := New(Options{Workers: 1}).Run(context.Background(), def)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			par, err := New(Options{Workers: workers}).Run(context.Background(), def)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("seed %d: %d-worker results differ from sequential:\nseq: %+v\npar: %+v",
					seed, workers, seq, par)
			}
		}
	}
}

// TestRunWorkersDeterministicE13 extends TestRunWorkersDeterministic to the
// trace-replay experiment: one captured trace replayed across variants must
// produce bit-identical per-variant Reports sequential vs parallel, across
// closed-loop, open-loop and dependent modes alike.
func TestRunWorkersDeterministicE13(t *testing.T) {
	def := suiteDef(t, "e13", Small)
	seq, err := New(Options{Workers: 1}).Run(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := New(Options{Workers: workers}).Run(context.Background(), def)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%d-worker E13 results differ from sequential:\nseq: %+v\npar: %+v",
				workers, seq, par)
		}
	}
}

// TestRunWorkersErrorMatchesSequential asserts the parallel runner reports
// the earliest failing variant with the rows before it, like the sequential
// loop.
func TestRunWorkersErrorMatchesSequential(t *testing.T) {
	doc := channelsDoc()
	doc.Variants = append(doc.Variants[:1:1], spec.Variant{
		Label: "broken",
		Set:   map[string]any{"geometry.channels": -1},
	}, doc.Variants[1])
	def := compile(t, doc)
	seq, errSeq := New(Options{Workers: 1}).Run(context.Background(), def)
	par, errPar := New(Options{Workers: 3}).Run(context.Background(), def)
	if errSeq == nil || errPar == nil {
		t.Fatal("broken variant did not fail")
	}
	if errSeq.Error() != errPar.Error() {
		t.Fatalf("error mismatch:\nseq: %v\npar: %v", errSeq, errPar)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("partial results mismatch:\nseq: %+v\npar: %+v", seq, par)
	}
}
