package experiment

import (
	"context"
	"testing"
)

// TestSuiteDefinitionsRun executes every predefined experiment at small
// scale and sanity-checks that each produced a full row set with completed
// IO. Shape assertions (who wins) live in the root bench harness and in
// EXPERIMENTS.md; this test guards that the definitions stay runnable.
func TestSuiteDefinitionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite definition; skipped with -short (the race CI leg)")
	}
	for _, def := range Suite(Small) {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			res, err := New(Options{}).Run(context.Background(), def)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(def.Variants) {
				t.Fatalf("%d rows for %d variants", len(res.Rows), len(def.Variants))
			}
			for _, row := range res.Rows {
				n := row.Report.ReadLatency.Count + row.Report.WriteLatency.Count
				if n == 0 {
					t.Errorf("variant %q measured zero IOs", row.Label)
				}
				if row.Report.Throughput <= 0 {
					t.Errorf("variant %q throughput %.2f", row.Label, row.Report.Throughput)
				}
			}
		})
	}
}

func TestE1ParallelismShape(t *testing.T) {
	res, err := New(Options{}).Run(context.Background(), suiteDef(t, "e1", Small))
	if err != nil {
		t.Fatal(err)
	}
	// More LUNs must help: the 16-LUN shape beats the 1-LUN shape clearly.
	first := res.Rows[0].Report.Throughput // ch=1,luns=1
	big := res.Rows[6].Report.Throughput   // ch=4,luns=4
	if big < 4*first {
		t.Fatalf("16 LUNs (%.0f IOPS) < 4x 1 LUN (%.0f IOPS): parallelism broken", big, first)
	}
}

func TestE2PolicyTradeoffShape(t *testing.T) {
	res, err := New(Options{}).Run(context.Background(), suiteDef(t, "e2", Small))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Row{}
	for _, r := range res.Rows {
		byLabel[r.Label] = r
	}
	fifo, rf := byLabel["fifo"], byLabel["reads-first"]
	if rf.Report.ReadLatency.Mean >= fifo.Report.ReadLatency.Mean {
		t.Fatalf("reads-first read mean %v >= fifo %v", rf.Report.ReadLatency.Mean, fifo.Report.ReadLatency.Mean)
	}
	if rf.Report.WriteLatency.Mean <= fifo.Report.WriteLatency.Mean {
		t.Fatalf("reads-first write mean %v <= fifo %v: no price paid", rf.Report.WriteLatency.Mean, fifo.Report.WriteLatency.Mean)
	}
}

func TestE9QueueDepthShape(t *testing.T) {
	res, err := New(Options{}).Run(context.Background(), suiteDef(t, "e9", Small))
	if err != nil {
		t.Fatal(err)
	}
	d1 := res.Rows[0].Report
	d64 := res.Rows[len(res.Rows)-1].Report
	if d64.Throughput <= d1.Throughput {
		t.Fatalf("depth 64 throughput %.0f <= depth 1 %.0f", d64.Throughput, d1.Throughput)
	}
	if d64.ReadLatency.Mean <= d1.ReadLatency.Mean {
		t.Fatalf("depth 64 latency %v <= depth 1 %v: queueing delay missing", d64.ReadLatency.Mean, d1.ReadLatency.Mean)
	}
}

func TestE11AgingShape(t *testing.T) {
	res, err := New(Options{}).Run(context.Background(), suiteDef(t, "e11", Small))
	if err != nil {
		t.Fatal(err)
	}
	fresh, aged := res.Rows[0].Report, res.Rows[1].Report
	if aged.Throughput >= fresh.Throughput {
		t.Fatalf("aged device (%.0f IOPS) not slower than fresh (%.0f IOPS)", aged.Throughput, fresh.Throughput)
	}
	if aged.WriteAmplification <= 1.0 {
		t.Fatalf("aged WA %.2f, want > 1", aged.WriteAmplification)
	}
}

func TestGameScoreOrdersRuns(t *testing.T) {
	res, err := New(Options{}).Run(context.Background(), suiteDef(t, "e12", Small))
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultGameWeights()
	best, worst := res.Rows[0], res.Rows[0]
	for _, r := range res.Rows[1:] {
		if w.Score(r.Report) > w.Score(best.Report) {
			best = r
		}
		if w.Score(r.Report) < w.Score(worst.Report) {
			worst = r
		}
	}
	if best.Label == worst.Label {
		t.Fatal("game score cannot distinguish any scheduling combination")
	}
	if w.Score(best.Report) <= w.Score(worst.Report) {
		t.Fatal("score ordering inconsistent")
	}
}
