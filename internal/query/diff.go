package query

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"eagletree/internal/resultstore"
	"eagletree/internal/stats"
)

// DiffSummary totals a regression diff: how many (variant, metric) pairs were
// compared and how they fell.
type DiffSummary struct {
	// Comparisons is the number of (variant, metric) pairs with at least one
	// shared seed on both sides.
	Comparisons int
	// Regressions counts pairs that moved in the metric's worse direction —
	// significantly under replication, or at all under a single seed (the
	// simulator is deterministic, so any single-seed delta is a real
	// behavioral change, not noise).
	Regressions int
	// Improvements counts pairs that moved in the better direction, by the
	// same standard.
	Improvements int
	// Unchanged counts pairs whose every paired delta is exactly zero.
	Unchanged int
	// Unpaired counts variants present on only one side, or with no seed in
	// common — nothing to compare.
	Unpaired int
}

// Diff compares two stored sweeps: side A is every row whose commit column
// equals a, side B likewise for b. Rows pair on (experiment, variant index,
// label, seed); paired rows group per variant, and each metric's
// per-seed deltas (B − A) are tested against their own 95% confidence
// interval. The verdict column reads:
//
//	=          every paired delta is exactly zero
//	~          nonzero but within the replication noise band
//	REGRESSED  significant move in the metric's worse direction
//	improved   significant move in the better direction
//	shifted    significant move on a metric with no better direction
//	worse      single-seed nonzero delta in the worse direction
//	better     single-seed nonzero delta in the better direction
//	Δ          single-seed nonzero delta, no better direction
//
// Output rows are ordered by (experiment, variant index, metric order as
// given) — byte-stable for a given store and argument list. When a pairs the
// same variant+seed more than once on a side, the latest-appended row wins.
func Diff(rows []resultstore.Row, a, b string, metrics []string) (*Table, DiffSummary, error) {
	var sum DiffSummary
	if a == b {
		return nil, sum, fmt.Errorf("%w: diff sides are both %q", ErrJoin, a)
	}
	specs := make([]resultstore.ColumnSpec, len(metrics))
	for i, m := range metrics {
		cs, ok := resultstore.Column(m)
		if !ok {
			return nil, sum, fmt.Errorf("%w: no metric %q", ErrColumn, m)
		}
		if cs.Kind == resultstore.KindString {
			return nil, sum, fmt.Errorf("%w: %q is not a numeric metric", ErrAggregate, m)
		}
		specs[i] = cs
	}

	// One group per variant position; within it, one row index per side per
	// seed. The variant's canonical config key embeds its seed, so the key
	// cannot be the group identity — replicates of one variant under several
	// seeds must land in one group to pair up. (experiment, index, label)
	// names the grid position; seeds pair inside it.
	type position struct {
		experiment, label string
		index             int
	}
	type group struct {
		position
		sideA, sideB map[uint64]int32
	}
	groupOf := make(map[position]*group)
	var groups []*group
	for i := range rows {
		r := &rows[i]
		if r.Commit != a && r.Commit != b {
			continue
		}
		pos := position{r.Experiment, r.Label, r.Index}
		g, ok := groupOf[pos]
		if !ok {
			g = &group{position: pos, sideA: make(map[uint64]int32), sideB: make(map[uint64]int32)}
			groupOf[pos] = g
			groups = append(groups, g)
		}
		if r.Commit == a {
			g.sideA[r.Seed] = int32(i)
		} else {
			g.sideB[r.Seed] = int32(i)
		}
	}
	sort.SliceStable(groups, func(i, j int) bool {
		gi, gj := groups[i], groups[j]
		if gi.experiment != gj.experiment {
			return gi.experiment < gj.experiment
		}
		if gi.index != gj.index {
			return gi.index < gj.index
		}
		return gi.label < gj.label
	})

	out := &Table{cols: []*column{
		{name: "experiment", kind: resultstore.KindString},
		{name: "label", kind: resultstore.KindString},
		{name: "metric", kind: resultstore.KindString},
		{name: "seeds", kind: resultstore.KindUint},
		{name: "a", kind: resultstore.KindFloat},
		{name: "b", kind: resultstore.KindFloat},
		{name: "delta", kind: resultstore.KindFloat},
		{name: "pct", kind: resultstore.KindFloat},
		{name: "verdict", kind: resultstore.KindString},
	}}
	emit := func(g *group, metric string, n int, ma, mb, delta, pct float64, verdict string) {
		out.cols[0].strs = append(out.cols[0].strs, g.experiment)
		out.cols[1].strs = append(out.cols[1].strs, g.label)
		out.cols[2].strs = append(out.cols[2].strs, metric)
		out.cols[3].uints = append(out.cols[3].uints, uint64(n))
		out.cols[4].floats = append(out.cols[4].floats, ma)
		out.cols[5].floats = append(out.cols[5].floats, mb)
		out.cols[6].floats = append(out.cols[6].floats, delta)
		out.cols[7].floats = append(out.cols[7].floats, pct)
		out.cols[8].strs = append(out.cols[8].strs, verdict)
		out.n++
	}

	toFloat := func(cs resultstore.ColumnSpec, row int32) float64 {
		v := cs.Get(&rows[row])
		switch cs.Kind {
		case resultstore.KindInt:
			return float64(v.Int)
		case resultstore.KindUint:
			return float64(v.Uint)
		default:
			return v.Float
		}
	}

	var seeds []uint64
	var xa, xb, deltas []float64
	for _, g := range groups {
		seeds = seeds[:0]
		for s := range g.sideA { //lint:ordered seeds are sorted immediately below
			if _, ok := g.sideB[s]; ok {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) == 0 {
			sum.Unpaired++
			continue
		}
		slices.Sort(seeds)

		for _, cs := range specs {
			xa, xb, deltas = xa[:0], xb[:0], deltas[:0]
			allZero := true
			for _, s := range seeds {
				va, vb := toFloat(cs, g.sideA[s]), toFloat(cs, g.sideB[s])
				xa, xb, deltas = append(xa, va), append(xb, vb), append(deltas, vb-va)
				if vb-va != 0 {
					allZero = false
				}
			}
			ma := stats.Summarize(xa).Mean
			mb := stats.Summarize(xb).Mean
			ds := stats.Summarize(deltas)
			pct := 0.0
			if ma != 0 {
				pct = 100 * ds.Mean / math.Abs(ma)
			}
			sum.Comparisons++

			verdict := "="
			switch {
			case allZero:
				sum.Unchanged++
			case len(seeds) >= 2 && math.Abs(ds.Mean) > ds.CI95:
				switch {
				case float64(cs.Better)*ds.Mean > 0:
					verdict = "improved"
					sum.Improvements++
				case float64(cs.Better)*ds.Mean < 0:
					verdict = "REGRESSED"
					sum.Regressions++
				default:
					verdict = "shifted"
				}
			case len(seeds) >= 2:
				verdict = "~"
			default:
				switch {
				case float64(cs.Better)*ds.Mean > 0:
					verdict = "better"
					sum.Improvements++
				case float64(cs.Better)*ds.Mean < 0:
					verdict = "worse"
					sum.Regressions++
				default:
					verdict = "Δ"
				}
			}
			emit(g, cs.Name, len(seeds), ma, mb, ds.Mean, pct, verdict)
		}
	}
	return out, sum, nil
}

// String renders the summary as the one-line trailer the CLI prints under a
// diff table.
func (s DiffSummary) String() string {
	return fmt.Sprintf("%d comparisons: %d regressions, %d improvements, %d unchanged, %d within noise, %d unpaired",
		s.Comparisons, s.Regressions, s.Improvements, s.Unchanged,
		s.Comparisons-s.Regressions-s.Improvements-s.Unchanged, s.Unpaired)
}
