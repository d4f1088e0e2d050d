package query_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"eagletree/internal/core"
	"eagletree/internal/query"
	"eagletree/internal/resultstore"
	"eagletree/internal/sim"
)

// corpus builds a small two-commit, two-seed store corpus: experiment "E"
// with two variants (fast, slow), where commit "new" improves fast's
// throughput and regresses slow's write latency consistently across seeds.
func corpus() []resultstore.Row {
	var rows []resultstore.Row
	for _, commit := range []string{"old", "new"} {
		for _, seed := range []uint64{7, 12345} {
			for idx, label := range []string{"fast", "slow"} {
				r := resultstore.Row{
					Experiment: "E",
					Spec:       "feedface",
					Commit:     commit,
					Seed:       seed,
					Index:      idx,
					Variant:    fmt.Sprintf("spec1|{\"v\":%q}", label),
					Label:      label,
					X:          float64(idx),
				}
				r.Report = core.Report{
					Duration:   sim.Duration(1e9),
					Throughput: 1000 + 10*float64(idx) + 0.001*float64(seed),
					WriteLatency: core.LatencySummary{
						Count: 5000, Mean: sim.Duration(4000 + 100*idx),
					},
					WriteAmplification: 1.5,
				}
				if commit == "new" {
					if label == "fast" {
						r.Report.Throughput += 50 // improvement
					} else {
						r.Report.WriteLatency.Mean += 900 // regression
					}
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

func TestFilterProjectSort(t *testing.T) {
	tab := query.FromRows(corpus())
	if tab.Len() != 8 {
		t.Fatalf("table has %d rows, want 8", tab.Len())
	}

	preds := []query.Predicate{
		mustPred(t, "commit = new"),
		mustPred(t, "label~fa"),
		mustPred(t, "seed >= 100"),
	}
	got, err := tab.Filter(preds)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("filter kept %d rows, want 1", got.Len())
	}

	proj, err := got.Project([]string{"label", "throughput_iops"})
	if err != nil {
		t.Fatal(err)
	}
	if names := proj.Names(); len(names) != 2 || names[0] != "label" || names[1] != "throughput_iops" {
		t.Fatalf("projected columns %v", names)
	}

	// Sort descending by seed, then check stability of equal keys.
	sorted, err := tab.Sort([]string{"-seed", "label"})
	if err != nil {
		t.Fatal(err)
	}
	csv := sorted.CSV()
	first := strings.Split(strings.Split(csv, "\n")[1], ",")
	if first[3] != "12345" { // seed column
		t.Fatalf("descending seed sort put %q first", first[3])
	}
}

func mustPred(t *testing.T, expr string) query.Predicate {
	t.Helper()
	p, err := query.ParsePredicate(expr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFilterErrors(t *testing.T) {
	tab := query.FromRows(corpus())
	cases := []struct {
		expr string
		want error
	}{
		{"nope = 1", query.ErrColumn},
		{"seed ~ 12", query.ErrPredicate},
		{"label > x", query.ErrPredicate},
		{"seed = abc", query.ErrPredicate},
		{"garbage", query.ErrPredicate},
	}
	for _, tc := range cases {
		p, err := query.ParsePredicate(tc.expr)
		if err == nil {
			_, err = tab.Filter([]query.Predicate{p})
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%q: got %v, want %v", tc.expr, err, tc.want)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	tab := query.FromRows(corpus())
	aggs := []query.Agg{
		{Fn: "count"},
		{Fn: "mean", Col: "throughput_iops"},
		{Fn: "ci95", Col: "throughput_iops"},
		{Fn: "min", Col: "seed"},
		{Fn: "max", Col: "seed"},
		{Fn: "sum", Col: "write_count"},
	}
	g, err := tab.GroupBy([]string{"commit", "label"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("grouped to %d rows, want 4", g.Len())
	}
	// Groups follow first appearance: corpus iterates old/new outermost.
	lines := strings.Split(strings.TrimRight(g.CSV(), "\n"), "\n")
	if lines[0] != "commit,label,count,mean(throughput_iops),ci95(throughput_iops),min(seed),max(seed),sum(write_count)" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "old,fast,2,") {
		t.Fatalf("first group %q, want old,fast", lines[1])
	}
	if !strings.Contains(lines[1], ",7,12345,10000") {
		t.Fatalf("aggregates wrong: %q", lines[1])
	}

	if _, err := tab.GroupBy([]string{"commit"}, []query.Agg{{Fn: "mode", Col: "seed"}}); !errors.Is(err, query.ErrAggregate) {
		t.Fatalf("unknown aggregate: %v", err)
	}
	if _, err := tab.GroupBy([]string{"commit"}, []query.Agg{{Fn: "mean", Col: "label"}}); !errors.Is(err, query.ErrAggregate) {
		t.Fatalf("string aggregate: %v", err)
	}
}

func TestParseAgg(t *testing.T) {
	a, err := query.ParseAgg("mean(write_amp)")
	if err != nil || a.Fn != "mean" || a.Col != "write_amp" {
		t.Fatalf("got %+v, %v", a, err)
	}
	if _, err := query.ParseAgg("mean write_amp"); !errors.Is(err, query.ErrAggregate) {
		t.Fatalf("want ErrAggregate, got %v", err)
	}
}

func TestJoin(t *testing.T) {
	rows := corpus()
	var oldRows, newRows []resultstore.Row
	for _, r := range rows {
		if r.Commit == "old" {
			oldRows = append(oldRows, r)
		} else {
			newRows = append(newRows, r)
		}
	}
	l := query.FromRows(oldRows)
	r := query.FromRows(newRows)
	j, err := l.Join(r, []string{"experiment", "label", "seed"}, "_a", "_b")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 4 {
		t.Fatalf("join produced %d rows, want 4", j.Len())
	}
	// Non-key columns present on both sides must be suffixed.
	names := strings.Join(j.Names(), ",")
	if !strings.Contains(names, "throughput_iops_a") || !strings.Contains(names, "throughput_iops_b") {
		t.Fatalf("suffixed columns missing: %s", names)
	}

	if _, err := l.Join(r, []string{"nope"}, "_a", "_b"); !errors.Is(err, query.ErrColumn) {
		t.Fatalf("join on unknown column: %v", err)
	}
}

func TestTextRenderStable(t *testing.T) {
	tab := query.FromRows(corpus())
	proj, err := tab.Project([]string{"commit", "label", "seed", "write_amp"})
	if err != nil {
		t.Fatal(err)
	}
	a := proj.Text()
	b := proj.Text()
	if a != b {
		t.Fatal("Text is not deterministic")
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	if len(lines) != 2+8 {
		t.Fatalf("rendered %d lines, want 10:\n%s", len(lines), a)
	}
	for _, ln := range lines {
		if strings.HasSuffix(ln, " ") {
			t.Fatalf("trailing whitespace in %q", ln)
		}
	}
}

func TestDiffFlagsRegressionsWithPolarity(t *testing.T) {
	rows := corpus()
	tbl, sum, err := query.Diff(rows, "old", "new",
		[]string{"throughput_iops", "write_mean_ns", "write_amp"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Comparisons != 6 {
		t.Fatalf("comparisons %d, want 6 (2 variants × 3 metrics)", sum.Comparisons)
	}
	if sum.Regressions != 1 || sum.Improvements != 1 {
		t.Fatalf("summary %+v, want 1 regression 1 improvement", sum)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "E,slow,write_mean_ns,2,4100,5000,900,") || !strings.Contains(csv, "REGRESSED") {
		t.Fatalf("missing regression row:\n%s", csv)
	}
	if !strings.Contains(csv, "improved") {
		t.Fatalf("missing improvement row:\n%s", csv)
	}
	// Unchanged metric on both variants.
	if got := strings.Count(csv, ",=\n"); got != 4 {
		t.Fatalf("unchanged rows %d, want 4:\n%s", got, csv)
	}
}

func TestDiffSameDataReportsZeroRegressions(t *testing.T) {
	// Duplicate the "old" side under a second commit name: identical data
	// must diff clean.
	rows := corpus()
	var both []resultstore.Row
	for _, r := range rows {
		if r.Commit != "old" {
			continue
		}
		both = append(both, r)
		r2 := r
		r2.Commit = "replay"
		both = append(both, r2)
	}
	_, sum, err := query.Diff(both, "old", "replay",
		[]string{"throughput_iops", "write_mean_ns", "write_amp"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Regressions != 0 || sum.Improvements != 0 || sum.Unchanged != sum.Comparisons {
		t.Fatalf("identical data must be all-unchanged: %+v", sum)
	}
	if !strings.Contains(sum.String(), "0 regressions") {
		t.Fatalf("summary line: %s", sum)
	}
}

func TestDiffSingleSeedDeltaCounts(t *testing.T) {
	// One seed only: the simulator is deterministic, so a nonzero delta is a
	// real change and must count even without replication.
	var rows []resultstore.Row
	for _, commit := range []string{"a", "b"} {
		r := resultstore.Row{Experiment: "E", Commit: commit, Seed: 1, Index: 0,
			Variant: "spec1|{}", Label: "run"}
		r.Report.Throughput = 100
		if commit == "b" {
			r.Report.Throughput = 90
		}
		rows = append(rows, r)
	}
	tbl, sum, err := query.Diff(rows, "a", "b", []string{"throughput_iops"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Regressions != 1 {
		t.Fatalf("single-seed drop must count as regression: %+v", sum)
	}
	if !strings.Contains(tbl.CSV(), "worse") {
		t.Fatalf("verdict should be single-seed 'worse':\n%s", tbl.CSV())
	}
}

func TestDiffErrors(t *testing.T) {
	rows := corpus()
	if _, _, err := query.Diff(rows, "x", "x", []string{"write_amp"}); !errors.Is(err, query.ErrJoin) {
		t.Fatalf("same sides: %v", err)
	}
	if _, _, err := query.Diff(rows, "old", "new", []string{"nope"}); !errors.Is(err, query.ErrColumn) {
		t.Fatalf("unknown metric: %v", err)
	}
	if _, _, err := query.Diff(rows, "old", "new", []string{"label"}); !errors.Is(err, query.ErrAggregate) {
		t.Fatalf("string metric: %v", err)
	}
	// Unpaired variants (side present only once) are counted, not compared.
	_, sum, err := query.Diff(rows, "old", "ghost", []string{"write_amp"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Comparisons != 0 || sum.Unpaired != 2 {
		t.Fatalf("ghost side: %+v", sum)
	}
}

func TestParsePredicateLeftmostOperator(t *testing.T) {
	cases := []struct {
		expr string
		want query.Predicate
	}{
		{"label~qd=8", query.Predicate{Col: "label", Op: "~", Val: "qd=8"}},
		{"label!=qd=8", query.Predicate{Col: "label", Op: "!=", Val: "qd=8"}},
		{"label=a<b", query.Predicate{Col: "label", Op: "=", Val: "a<b"}},
		{"label~a>=b", query.Predicate{Col: "label", Op: "~", Val: "a>=b"}},
		{"x<=3", query.Predicate{Col: "x", Op: "<=", Val: "3"}},
		{"x<3", query.Predicate{Col: "x", Op: "<", Val: "3"}},
		{" seed >= 7 ", query.Predicate{Col: "seed", Op: ">=", Val: "7"}},
	}
	for _, tc := range cases {
		got, err := query.ParsePredicate(tc.expr)
		if err != nil || got != tc.want {
			t.Errorf("ParsePredicate(%q) = %+v, %v; want %+v", tc.expr, got, err, tc.want)
		}
	}
	for _, expr := range []string{"garbage", "", "=8", " ~x"} {
		if _, err := query.ParsePredicate(expr); !errors.Is(err, query.ErrPredicate) {
			t.Errorf("ParsePredicate(%q): got %v, want ErrPredicate", expr, err)
		}
	}

	// The clause that motivated the fix selects by label substring end to end.
	rows := corpus()
	for i := range rows {
		rows[i].Label = fmt.Sprintf("qd=%d", 8<<(i%2))
	}
	got, err := query.FromRows(rows).Filter([]query.Predicate{mustPred(t, "label~qd=8")})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(rows)/2 {
		t.Fatalf("label~qd=8 kept %d rows, want %d", got.Len(), len(rows)/2)
	}
}

func TestTextPadsInRunes(t *testing.T) {
	rows := corpus()[:2]
	rows[0].Experiment, rows[1].Experiment = "µ=1", "a=10"
	tab, err := query.FromRows(rows).Project([]string{"experiment", "seed"})
	if err != nil {
		t.Fatal(err)
	}
	text := tab.Text()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	// Every line's second column ends at the same rune offset, and the first
	// column is as wide as its widest cell in runes ("experiment", 10).
	for _, ln := range lines {
		if n := len([]rune(ln)); n != len("experiment")+2+len("seed") {
			t.Fatalf("line %q is %d runes wide, want %d:\n%s", ln, n, len("experiment")+2+len("seed"), text)
		}
	}
	if !strings.HasPrefix(lines[2], "µ=1         ") || !strings.HasPrefix(lines[3], "a=10        ") {
		t.Fatalf("first column is not padded to one rune width:\n%s", text)
	}
}

// TestViewsDoNotAliasResults: deriving tables from a parent changes neither
// the parent nor its other children.
func TestViewsDoNotAliasResults(t *testing.T) {
	parent := query.FromRows(corpus())
	before := parent.Text()

	fast, err := parent.Filter([]query.Predicate{mustPred(t, "label=fast")})
	if err != nil {
		t.Fatal(err)
	}
	fastBefore := fast.Text()
	sorted, err := parent.Sort([]string{"-seed", "label"})
	if err != nil {
		t.Fatal(err)
	}
	sortedBefore := sorted.Text()
	if _, err := fast.Sort([]string{"-throughput_iops"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sorted.Filter([]query.Predicate{mustPred(t, "commit=new")}); err != nil {
		t.Fatal(err)
	}
	if _, err := sorted.Project([]string{"seed"}); err != nil {
		t.Fatal(err)
	}

	if parent.Text() != before {
		t.Fatal("filtering and sorting children changed the parent")
	}
	if fast.Text() != fastBefore {
		t.Fatal("sorting a filtered child, or deriving its sibling, changed it")
	}
	if sorted.Text() != sortedBefore {
		t.Fatal("filtering and projecting a sorted child changed it")
	}
	if fast.Len() != 4 || sorted.Len() != 8 || fastBefore == sortedBefore {
		t.Fatalf("children are not independent: fast has %d rows, sorted %d", fast.Len(), sorted.Len())
	}
}

// TestConcurrentReaders builds the columns of one fresh table from eight
// goroutines at once (run under -race): each groups by a different column,
// and all aggregate the same one, so first-use builds collide.
func TestConcurrentReaders(t *testing.T) {
	tab := query.FromRows(corpus())
	keys := []string{"experiment", "commit", "seed", "index", "label", "x", "variant", "write_mean_ns"}
	texts := make([]string, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := tab.GroupBy([]string{key}, []query.Agg{{Fn: "count"}, {Fn: "mean", Col: "throughput_iops"}})
			if err != nil {
				t.Error(err)
				return
			}
			texts[i] = g.Text()
		}()
	}
	wg.Wait()
	for i, key := range keys {
		g, err := tab.GroupBy([]string{key}, []query.Agg{{Fn: "count"}, {Fn: "mean", Col: "throughput_iops"}})
		if err != nil {
			t.Fatal(err)
		}
		if g.Text() != texts[i] {
			t.Fatalf("group by %s read differently under concurrency:\n%s\nvs\n%s", key, texts[i], g.Text())
		}
	}
}

// TestFilterAllocsIndependentOfWidth: a filter allocates its selection and a
// header, whatever the width of the table it selects from.
func TestFilterAllocsIndependentOfWidth(t *testing.T) {
	rows := archive(2000)[0]
	wide := query.FromRows(rows)
	narrow, err := wide.Project([]string{"commit", "throughput_iops"})
	if err != nil {
		t.Fatal(err)
	}
	preds := []query.Predicate{mustPred(t, "commit=base"), mustPred(t, "throughput_iops>4000")}
	allocs := func(tab *query.Table) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := tab.Filter(preds); err != nil {
				t.Fatal(err)
			}
		})
	}
	w, n := allocs(wide), allocs(narrow)
	// The selection grows by doubling, a dozen steps for a thousand rows;
	// each predicate adds its one-cell literal column.
	if w != n || w > 25 {
		t.Fatalf("Filter allocates %.0f objects on %d columns, %.0f on 2: want equal and at most 25", w, len(wide.Names()), n)
	}
}

// TestDiffAllocatesNoPerRowStrings: Diff's allocations follow the number of
// variants it pairs, not the number of rows it reads.
func TestDiffAllocatesNoPerRowStrings(t *testing.T) {
	var rows []resultstore.Row
	for _, seg := range archive(16000) {
		for _, r := range seg {
			if r.Index < 2 && r.Experiment == "X01-synthetic" {
				rows = append(rows, r)
			}
		}
	}
	if len(rows) != 32 {
		t.Fatalf("corpus has %d rows, want 2 variants × 8 seeds × 2 labels", len(rows))
	}
	small := testing.AllocsPerRun(10, func() {
		if _, _, err := query.Diff(rows[:16], "base", "cand", []string{"throughput_iops"}); err != nil {
			t.Fatal(err)
		}
	})
	all := testing.AllocsPerRun(10, func() {
		if _, _, err := query.Diff(rows, "base", "cand", []string{"throughput_iops"}); err != nil {
			t.Fatal(err)
		}
	})
	// Twice the seeds under the same two variants: the per-seed maps grow a
	// few times, nothing is allocated per row.
	if all-small >= float64(len(rows)-16) {
		t.Fatalf("Diff allocates %.0f objects for 16 rows and %.0f for 32: one or more per added row", small, all)
	}
}
