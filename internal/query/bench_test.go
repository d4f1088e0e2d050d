package query_test

import (
	"fmt"
	"testing"

	"eagletree/internal/core"
	"eagletree/internal/query"
	"eagletree/internal/resultstore"
	"eagletree/internal/sim"
)

// BenchmarkQueryGroupBy measures the hot analytical path: grouping a
// several-thousand-row corpus by variant and computing replicate statistics.
func BenchmarkQueryGroupBy(b *testing.B) {
	rows := make([]resultstore.Row, 0, 4096)
	for i := 0; i < 4096; i++ {
		rows = append(rows, resultstore.Row{
			Experiment: fmt.Sprintf("E%d", i%4),
			Commit:     "bench",
			Seed:       uint64(i % 16),
			Index:      i % 64,
			Variant:    fmt.Sprintf("spec1|{\"v\":%d}", i%64),
			Label:      fmt.Sprintf("v%d", i%64),
			Report:     core.Report{Throughput: float64(i), WriteAmplification: 1 + float64(i%7)/10},
		})
	}
	tab := query.FromRows(rows)
	aggs := []query.Agg{
		{Fn: "count"},
		{Fn: "mean", Col: "throughput_iops"},
		{Fn: "ci95", Col: "throughput_iops"},
		{Fn: "mean", Col: "write_amp"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.GroupBy([]string{"experiment", "label"}, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

// archive generates a synthetic result archive of n rows shaped like what
// `sweep -run all -seeds … -label …` leaves behind: 8 experiments of 125
// variants under two commit labels, one 1000-row segment per (label, seed),
// the labels pairing on every (experiment, variant, seed) with every third
// variant shifted between them.
func archive(n int) [][]resultstore.Row {
	const experiments, variants = 8, 125
	rng := sim.NewRNG(7)
	var segs [][]resultstore.Row
	for s := 1; s <= n/(2*experiments*variants); s++ {
		for _, label := range []string{"base", "cand"} {
			seg := make([]resultstore.Row, 0, experiments*variants)
			for e := 0; e < experiments; e++ {
				for v := 0; v < variants; v++ {
					tput := 2000 + float64((e*variants+v)*37%8000)
					if label == "cand" && v%3 == 0 {
						tput *= 1.03
					}
					tput *= 1 + 0.02*(rng.Float64()-0.5)
					seg = append(seg, resultstore.Row{
						Experiment: fmt.Sprintf("X%02d-synthetic", e+1),
						Spec:       fmt.Sprintf("%064x", e+1),
						Commit:     label,
						Seed:       uint64(s),
						Index:      v,
						Variant:    fmt.Sprintf(`spec1|{"geometry":{"channels":2,"luns_per_channel":2,"blocks_per_lun":128,"pages_per_block":32,"page_size":4096},"timing":"slc","mapping":"pagemap","overprovision":0.15,"gc":{"policy":"greedy","greediness":%d},"policy":"fifo","os":{"policy":"fifo","queue_depth":%d},"x":%d}`, 1+v%8, 1+v%32, e*variants+v),
						Label:      fmt.Sprintf("a=%d,b=%d,c=%d", v/25, v/5%5, v%5),
						X:          float64(v),
						Report: core.Report{
							Duration:           sim.Duration(float64(sim.Second) * 4000 / tput),
							Throughput:         tput,
							ReadLatency:        core.LatencySummary{Count: 2000, Mean: sim.Duration(30_000 + 100*v), P99: sim.Duration(90_000 + 300*v)},
							WriteLatency:       core.LatencySummary{Count: 2000, Mean: sim.Duration(4e9 / tput), P99: sim.Duration(12e9 / tput)},
							GCMigratedPages:    uint64(1000 + 10*v),
							WriteAmplification: 1 + float64(v%20)/10,
							Wear:               core.WearSummary{MinErase: v % 4, MaxErase: 8 + v%5, MeanErase: 5.5, StdErase: 1.25},
							EffectiveOP:        0.17,
							MaxPendingOS:       64,
							MaxInFlight:        1 + v%32,
						},
					})
				}
			}
			segs = append(segs, seg)
		}
	}
	return segs
}

// BenchmarkQueryCorpus is the corpus path end to end at three archive sizes:
// every segment appended to a fresh store, then Open → Rows → FromRows →
// filter, project + sort, two group-bys, a self-join on (experiment, index,
// seed) and the regression Diff, each result rendered. rows=1000000 is the
// ROADMAP's gate for the query core; it is skipped under -short.
func BenchmarkQueryCorpus(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			if n > 100_000 && testing.Short() {
				b.Skip("the 10^6-row archive is skipped under -short")
			}
			segs := archive(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := corpusPass(b.TempDir(), segs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func corpusPass(dir string, segs [][]resultstore.Row) error {
	store, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := store.Append(seg); err != nil {
			return err
		}
	}
	rows, err := store.Rows()
	if err != nil {
		return err
	}
	tab := query.FromRows(rows)
	where := func(t *query.Table, exprs ...string) (*query.Table, error) {
		preds := make([]query.Predicate, len(exprs))
		for i, e := range exprs {
			if preds[i], err = query.ParsePredicate(e); err != nil {
				return nil, err
			}
		}
		return t.Filter(preds)
	}

	t, err := where(tab, "experiment=X04-synthetic", "commit=cand", "throughput_iops>6000")
	if err != nil {
		return err
	}
	sink += len(t.Text())

	if t, err = tab.Project([]string{"experiment", "label", "commit", "seed", "throughput_iops", "write_amp"}); err != nil {
		return err
	}
	if t, err = t.Sort([]string{"-throughput_iops", "experiment"}); err != nil {
		return err
	}
	if t, err = where(t, "seed=1", "commit=base"); err != nil {
		return err
	}
	sink += len(t.Text())

	for _, g := range []struct {
		keys []string
		aggs []query.Agg
	}{
		{[]string{"experiment", "label"}, []query.Agg{{Fn: "count"}, {Fn: "mean", Col: "throughput_iops"}, {Fn: "ci95", Col: "throughput_iops"}}},
		{[]string{"commit", "experiment"}, []query.Agg{{Fn: "mean", Col: "write_amp"}, {Fn: "ci95", Col: "write_amp"}, {Fn: "mean", Col: "write_mean_ns"}, {Fn: "ci95", Col: "write_mean_ns"}}},
	} {
		if t, err = tab.GroupBy(g.keys, g.aggs); err != nil {
			return err
		}
		sink += len(t.Text())
	}

	cols := []string{"experiment", "index", "seed", "throughput_iops"}
	var sides [2]*query.Table
	for i, label := range []string{"base", "cand"} {
		if t, err = where(tab, "commit="+label); err != nil {
			return err
		}
		if sides[i], err = t.Project(cols); err != nil {
			return err
		}
	}
	if t, err = sides[0].Join(sides[1], cols[:3], "_base", "_cand"); err != nil {
		return err
	}
	if t, err = where(t, "seed=1", "index<5"); err != nil {
		return err
	}
	sink += len(t.Text())

	t, _, err = query.Diff(rows, "base", "cand", []string{"throughput_iops", "write_mean_ns", "write_amp"})
	if err != nil {
		return err
	}
	sink += len(t.Text())
	return nil
}

// sink keeps rendered output alive so no query is optimised away.
var sink int
