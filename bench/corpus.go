package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"eagletree/internal/core"
	"eagletree/internal/query"
	"eagletree/internal/resultstore"
	"eagletree/internal/sim"
)

// corpus is corpus_query's input: a synthetic result archive shaped like
// what `sweep -run all -seeds … -label …` leaves behind. Rows come in sweep
// order — label, seed, experiment, variant — so one segment is one whole-suite
// sweep at one seed under one commit label, and the two labels pair on every
// (experiment, variant, seed), which makes Diff compare every variant.
type corpus struct {
	rows     []resultstore.Row
	segments [][]resultstore.Row
	root     string // fresh store directories are made under here
	filterOn string // an experiment name the filter query selects
}

const (
	labelBase = "base"
	labelCand = "cand"
)

func makeCorpus(sz sizes, seed uint64, root string) *corpus {
	rng := sim.NewRNG(seed)
	type variant struct {
		key, label string
		tput, wamp float64
		wmean      int64
	}
	exps := make([]string, sz.corpusExperiments)
	variants := make([][]variant, sz.corpusExperiments)
	for e := range exps {
		exps[e] = fmt.Sprintf("X%02d-synthetic", e+1)
		variants[e] = make([]variant, sz.corpusVariants)
		for v := range variants[e] {
			variants[e][v] = variant{
				// Shaped like spec.CanonKey output: long, sharing a prefix, distinct per variant.
				key: fmt.Sprintf(`spec1|{"geometry":{"channels":2,"luns_per_channel":2,"blocks_per_lun":128,"pages_per_block":32,"page_size":4096},"timing":"slc","mapping":"pagemap","overprovision":0.15,"gc":{"policy":"greedy","greediness":%d},"policy":"fifo","alloc":"leastloaded","os":{"policy":"fifo","queue_depth":%d},"x":%d}`,
					1+v%8, 1+v%32, e*sz.corpusVariants+v),
				label: fmt.Sprintf("a=%d,b=%d,c=%d", v/25, v/5%5, v%5),
				tput:  2000 + 8000*rng.Float64(),
				wamp:  1 + 2*rng.Float64(),
				wmean: 100_000 + int64(rng.Intn(900_000)),
			}
		}
	}
	c := &corpus{root: root, filterOn: exps[len(exps)/2]}
	for _, label := range []string{labelBase, labelCand} {
		for s := 1; s <= sz.corpusSeeds; s++ {
			for e, exp := range exps {
				digest := sha256.Sum256([]byte(exp))
				for v, vr := range variants[e] {
					noise := 1 + 0.02*(rng.Float64()-0.5)
					shift := 1.0
					if label == labelCand && v%3 == 0 {
						shift = 1.03 // every third variant moved between the two commits
					}
					tput := vr.tput * noise * shift
					c.rows = append(c.rows, resultstore.Row{
						Experiment: exp,
						Spec:       hex.EncodeToString(digest[:]),
						Commit:     label,
						Seed:       uint64(s),
						Index:      v,
						Variant:    vr.key,
						Label:      vr.label,
						X:          float64(v),
						Report: core.Report{
							Duration:           sim.Duration(float64(sim.Second) * 4000 / tput),
							Throughput:         tput,
							ReadLatency:        core.LatencySummary{Count: 2000, Mean: sim.Duration(vr.wmean / 3), P99: sim.Duration(vr.wmean), Max: sim.Duration(2 * vr.wmean)},
							WriteLatency:       core.LatencySummary{Count: 2000, Mean: sim.Duration(float64(vr.wmean) / noise / shift), P99: sim.Duration(3 * vr.wmean), Max: sim.Duration(5 * vr.wmean)},
							GCMigratedPages:    uint64(1000 * vr.wamp),
							GCErases:           uint64(40 * vr.wamp),
							WriteAmplification: vr.wamp * noise,
							Wear:               core.WearSummary{MinErase: v % 4, MaxErase: 8 + v%5, MeanErase: 5.5, StdErase: 1.25},
							EffectiveOP:        0.17,
							MaxPendingOS:       64,
							MaxInFlight:        1 + v%32,
						},
					})
				}
			}
		}
	}
	for i := 0; i < len(c.rows); i += sz.segmentRows {
		j := i + sz.segmentRows
		if j > len(c.rows) {
			j = len(c.rows)
		}
		c.segments = append(c.segments, c.rows[i:j])
	}
	return c
}

// step times one store or query call: a span for the traced run, an
// operation for the clock.
func step(l *spanLog, clk *opClock, name string, fn func() error) error {
	end := l.begin(name)
	err := fn()
	end()
	clk.op()
	return err
}

// pass is one cycle over the archive, writes beside reads: a fresh store
// directory, every segment appended, then Open → Rows → FromRows → six fixed
// queries, each rendered. The simulator does nothing. One operation is one
// store or query call.
func (c *corpus) pass(l *spanLog, clk *opClock) (passOutput, time.Duration, error) {
	var out passOutput
	dir, err := os.MkdirTemp(c.root, "corpus-")
	if err != nil {
		return out, 0, err
	}
	defer os.RemoveAll(dir)

	var texts []string
	render := func(t *query.Table) {
		end := l.begin("query.render")
		texts = append(texts, t.Text())
		end()
	}
	pred := func(exprs ...string) ([]query.Predicate, error) {
		preds := make([]query.Predicate, len(exprs))
		for i, e := range exprs {
			p, err := query.ParsePredicate(e)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return preds, nil
	}

	opsBefore := len(clk.ms)
	begin := time.Now()
	clk.start()
	store, err := resultstore.Open(dir)
	if err != nil {
		return out, 0, err
	}
	for _, seg := range c.segments {
		if err := step(l, clk, "resultstore.append", func() error { return store.Append(seg) }); err != nil {
			return out, 0, err
		}
	}
	var rows []resultstore.Row
	err = step(l, clk, "resultstore.rows", func() error {
		reopened, err := resultstore.Open(dir)
		if err != nil {
			return err
		}
		rows, err = reopened.Rows()
		return err
	})
	if err != nil {
		return out, 0, err
	}
	var tab *query.Table
	_ = step(l, clk, "query.fromrows", func() error { tab = query.FromRows(rows); return nil })

	// 1. filter: one experiment's fast candidate rows.
	err = step(l, clk, "query.filter", func() error {
		preds, err := pred("experiment="+c.filterOn, "commit="+labelCand, "throughput_iops>6000")
		if err != nil {
			return err
		}
		t, err := tab.Filter(preds)
		if err == nil {
			render(t)
		}
		return err
	})
	if err != nil {
		return out, 0, err
	}
	// 2. project + sort the whole archive; the first seed's rows are shown.
	err = step(l, clk, "query.sort", func() error {
		t, err := tab.Project([]string{"experiment", "label", "commit", "seed", "throughput_iops", "write_amp"})
		if err != nil {
			return err
		}
		if t, err = t.Sort([]string{"-throughput_iops", "experiment"}); err != nil {
			return err
		}
		preds, err := pred("seed=1", "commit="+labelBase)
		if err != nil {
			return err
		}
		if t, err = t.Filter(preds); err == nil {
			render(t)
		}
		return err
	})
	if err != nil {
		return out, 0, err
	}
	// 3 and 4. replication statistics per variant and per commit.
	groupBys := []struct {
		keys []string
		aggs []query.Agg
	}{
		{[]string{"experiment", "label"}, []query.Agg{{Fn: "count"}, {Fn: "mean", Col: "throughput_iops"}, {Fn: "ci95", Col: "throughput_iops"}}},
		{[]string{"commit", "experiment"}, []query.Agg{{Fn: "mean", Col: "write_amp"}, {Fn: "ci95", Col: "write_amp"}, {Fn: "mean", Col: "write_mean_ns"}, {Fn: "ci95", Col: "write_mean_ns"}}},
	}
	for _, g := range groupBys {
		err = step(l, clk, "query.groupby", func() error {
			t, err := tab.GroupBy(g.keys, g.aggs)
			if err == nil {
				render(t)
			}
			return err
		})
		if err != nil {
			return out, 0, err
		}
	}
	// 5. self-join: base rows beside candidate rows of the same variant and seed.
	err = step(l, clk, "query.join", func() error {
		cols := []string{"experiment", "index", "seed", "throughput_iops"}
		side := func(label string) (*query.Table, error) {
			preds, err := pred("commit=" + label)
			if err != nil {
				return nil, err
			}
			t, err := tab.Filter(preds)
			if err != nil {
				return nil, err
			}
			return t.Project(cols)
		}
		a, err := side(labelBase)
		if err != nil {
			return err
		}
		b, err := side(labelCand)
		if err != nil {
			return err
		}
		j, err := a.Join(b, cols[:3], "_base", "_cand")
		if err != nil {
			return err
		}
		texts = append(texts, fmt.Sprintf("join rows=%d", j.Len()))
		preds, err := pred("seed=1", "index<5")
		if err != nil {
			return err
		}
		if j, err = j.Filter(preds); err == nil {
			render(j)
		}
		return err
	})
	if err != nil {
		return out, 0, err
	}
	// 6. the regression diff between the two commit labels.
	err = step(l, clk, "query.diff", func() error {
		t, summary, err := query.Diff(rows, labelBase, labelCand, []string{"throughput_iops", "write_mean_ns", "write_amp"})
		if err == nil {
			render(t)
			texts = append(texts, summary.String())
		}
		return err
	})
	if err != nil {
		return out, 0, err
	}
	wall := time.Since(begin)

	out.ops = len(clk.ms) - opsBefore
	out.lines = texts
	out.storeRows = len(rows)
	if out.storeBytes, err = segmentBytes(store); err != nil {
		return out, 0, err
	}
	return out, wall, nil
}
