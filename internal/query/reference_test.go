package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"eagletree/internal/core"
	"eagletree/internal/resultstore"
	"eagletree/internal/sim"
)

// The reference: Filter, Sort and Project as they were before tables became
// views — every operator copies the rows it keeps, one Value at a time, into
// a fresh table with no selection vector. Slow and obviously correct; the
// view operators must render the same bytes.

func refValue(c *column, i int) resultstore.Value {
	switch c.kind {
	case resultstore.KindString:
		return resultstore.Value{Str: c.strs[i]}
	case resultstore.KindInt:
		return resultstore.Value{Int: c.ints[i]}
	case resultstore.KindUint:
		return resultstore.Value{Uint: c.uints[i]}
	default:
		return resultstore.Value{Float: c.floats[i]}
	}
}

func refAppend(c *column, v resultstore.Value) {
	switch c.kind {
	case resultstore.KindString:
		c.strs = append(c.strs, v.Str)
	case resultstore.KindInt:
		c.ints = append(c.ints, v.Int)
	case resultstore.KindUint:
		c.uints = append(c.uints, v.Uint)
	default:
		c.floats = append(c.floats, v.Float)
	}
}

// refTake builds a new materialised table holding the given positions of t.
func refTake(t *Table, idx []int) *Table {
	out := &Table{cols: make([]*column, len(t.cols)), n: len(idx)}
	build(t.cols)
	for i, src := range t.cols {
		dst := &column{name: src.name, kind: src.kind, better: src.better}
		for _, r := range idx {
			refAppend(dst, refValue(src, t.row(r)))
		}
		out.cols[i] = dst
	}
	return out
}

func refCol(t *Table, name string) *column {
	for _, c := range t.cols {
		if c.name == name {
			return c
		}
	}
	panic("reference: no column " + name)
}

func refFilter(t *Table, preds []Predicate) *Table {
	var idx []int
	for r := 0; r < t.n; r++ {
		keep := true
		for _, p := range preds {
			c := refCol(t, p.Col)
			var ord int // sign of cell - literal, for numeric kinds
			switch c.kind {
			case resultstore.KindString:
				cell := c.strs[r]
				switch p.Op {
				case "=":
					keep = keep && cell == p.Val
				case "!=":
					keep = keep && cell != p.Val
				case "~":
					keep = keep && strings.Contains(cell, p.Val)
				}
				continue
			case resultstore.KindInt:
				lit, _ := strconv.ParseInt(p.Val, 10, 64)
				ord = cmpOrd(c.ints[r], lit)
			case resultstore.KindUint:
				lit, _ := strconv.ParseUint(p.Val, 10, 64)
				ord = cmpOrd(c.uints[r], lit)
			case resultstore.KindFloat:
				lit, _ := strconv.ParseFloat(p.Val, 64)
				ord = cmpOrd(c.floats[r], lit)
			}
			switch p.Op {
			case "=":
				keep = keep && ord == 0
			case "!=":
				keep = keep && ord != 0
			case "<":
				keep = keep && ord < 0
			case "<=":
				keep = keep && ord <= 0
			case ">":
				keep = keep && ord > 0
			case ">=":
				keep = keep && ord >= 0
			}
		}
		if keep {
			idx = append(idx, r)
		}
	}
	return refTake(t, idx)
}

func refProject(t *Table, names []string) *Table {
	out := &Table{n: t.n}
	for _, name := range names {
		out.cols = append(out.cols, refCol(t, name))
	}
	return out
}

func refSort(t *Table, names []string) *Table {
	idx := make([]int, t.n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := idx[a], idx[b]
		for _, name := range names {
			c := refCol(t, strings.TrimPrefix(name, "-"))
			var ord int
			switch c.kind {
			case resultstore.KindString:
				ord = strings.Compare(c.strs[ra], c.strs[rb])
			case resultstore.KindInt:
				ord = cmpOrd(c.ints[ra], c.ints[rb])
			case resultstore.KindUint:
				ord = cmpOrd(c.uints[ra], c.uints[rb])
			case resultstore.KindFloat:
				ord = cmpOrd(c.floats[ra], c.floats[rb])
			}
			if ord == 0 {
				continue
			}
			if strings.HasPrefix(name, "-") {
				return ord > 0
			}
			return ord < 0
		}
		return false
	})
	return refTake(t, idx)
}

// randomRows draws n store rows from domains small enough that every key
// column repeats: all four kinds, negative and fractional numbers, a label
// with operator characters and a non-ASCII experiment name.
func randomRows(rng *rand.Rand, n int) []resultstore.Row {
	rows := make([]resultstore.Row, n)
	for i := range rows {
		rows[i] = resultstore.Row{
			Experiment: []string{"E1", "E2-queue", "Eτ"}[rng.Intn(3)],
			Commit:     []string{"base", "cand"}[rng.Intn(2)],
			Seed:       uint64(1 + rng.Intn(3)),
			Index:      rng.Intn(4) - 1,
			Label:      fmt.Sprintf("qd=%d", 1<<rng.Intn(3)),
			X:          []float64{-1, 0, 0.5, 1}[rng.Intn(4)],
			Report: core.Report{
				Throughput:   []float64{100, 200, 200.5, 1e6}[rng.Intn(4)],
				WriteLatency: core.LatencySummary{Mean: sim.Duration(rng.Intn(5) * 1000)},
				GCErases:     uint64(rng.Intn(3)),
			},
		}
	}
	return rows
}

// step is one randomly drawn operator, applied to the view and to the
// reference alike.
type step struct {
	name  string
	preds []Predicate
	names []string
}

func (s step) String() string { return fmt.Sprintf("%s%v%v", s.name, s.preds, s.names) }

func randomStep(rng *rand.Rand, t *Table) step {
	names := t.Names()
	pick := func() *column { return t.cols[rng.Intn(len(t.cols))] }
	switch rng.Intn(3) {
	case 0:
		s := step{name: "filter"}
		for k := 0; k <= rng.Intn(2); k++ {
			c := pick()
			p := Predicate{Col: c.name}
			if c.kind == resultstore.KindString {
				p.Op = []string{"=", "!=", "~"}[rng.Intn(3)]
				p.Val = []string{"E1", "E", "τ", "base", "qd=2", "=", "nothing-has-this"}[rng.Intn(7)]
			} else {
				p.Op = []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
				p.Val = []string{"0", "1", "2", "200", "1000", "99999999"}[rng.Intn(6)]
			}
			s.preds = append(s.preds, p)
		}
		return s
	case 1:
		s := step{name: "sort"}
		for k := 0; k <= rng.Intn(3); k++ {
			s.names = append(s.names, []string{"", "-"}[rng.Intn(2)]+pick().name)
		}
		return s
	default:
		s := step{name: "project"}
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		s.names = names[:1+rng.Intn(len(names))]
		return s
	}
}

func (s step) apply(t *testing.T, view, ref *Table) (*Table, *Table) {
	t.Helper()
	var err error
	switch s.name {
	case "filter":
		view, err = view.Filter(s.preds)
		ref = refFilter(ref, s.preds)
	case "sort":
		view, err = view.Sort(s.names)
		ref = refSort(ref, s.names)
	default:
		view, err = view.Project(s.names)
		ref = refProject(ref, s.names)
	}
	if err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	return view, ref
}

// TestViewsMatchMaterialisedReference drives the view operators and the
// copying reference through the same random chains over the same random
// tables — the empty table, filters that keep nothing, duplicate sort keys —
// and requires every way of reading the result (Text, CSV, GroupBy, Join)
// to produce the same bytes.
func TestViewsMatchMaterialisedReference(t *testing.T) {
	narrow := []string{"experiment", "commit", "seed", "index", "label", "x", "throughput_iops", "write_mean_ns", "gc_erases"}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := randomRows(rng, []int{0, 1, 7, 60}[rng.Intn(4)])
		chain := func() (*Table, *Table, []step) {
			all := make([]int, len(rows))
			for i := range all {
				all[i] = i
			}
			view, ref := FromRows(rows), refTake(FromRows(rows), all)
			steps := []step{{name: "project", names: narrow}}
			for k := rng.Intn(5); k > 0; k-- {
				steps = append(steps, step{})
			}
			for i := range steps {
				if i > 0 {
					steps[i] = randomStep(rng, view)
				}
				view, ref = steps[i].apply(t, view, ref)
			}
			return view, ref, steps
		}
		same := func(what string, steps []step, view, ref *Table) {
			t.Helper()
			if got, want := view.Text(), ref.Text(); got != want {
				t.Fatalf("seed %d, %s after %v: Text differs\nview:\n%s\nreference:\n%s", seed, what, steps, got, want)
			}
			if got, want := view.CSV(), ref.CSV(); got != want {
				t.Fatalf("seed %d, %s after %v: CSV differs\nview:\n%s\nreference:\n%s", seed, what, steps, got, want)
			}
			if view.Len() != ref.Len() {
				t.Fatalf("seed %d, %s after %v: Len %d, reference %d", seed, what, steps, view.Len(), ref.Len())
			}
		}

		view, ref, steps := chain()
		same("chain", steps, view, ref)

		// GroupBy on up to two of the surviving columns, aggregating one.
		keys := []string{view.cols[rng.Intn(len(view.cols))].name}
		if rng.Intn(2) == 0 {
			keys = append(keys, view.cols[rng.Intn(len(view.cols))].name)
		}
		aggs := []Agg{{Fn: "count"}}
		if c := view.cols[rng.Intn(len(view.cols))]; c.kind != resultstore.KindString && view.Len() > 0 {
			aggs = append(aggs, Agg{Fn: []string{"mean", "ci95", "min", "max", "sum", "std"}[rng.Intn(6)], Col: c.name})
		}
		gv, err := view.GroupBy(keys, aggs)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := ref.GroupBy(keys, aggs)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("GroupBy(%v, %v)", keys, aggs), steps, gv, gr)

		// Join with a second chain over the same rows, on whichever of the
		// identity columns both sides kept.
		view2, ref2, steps2 := chain()
		var on []string
		for _, name := range []string{"experiment", "seed", "index", "x"} {
			if _, err := view.col(name); err != nil {
				continue
			}
			if _, err := view2.col(name); err == nil {
				on = append(on, name)
			}
		}
		if len(on) == 0 {
			continue
		}
		jv, err := view.Join(view2, on, "_l", "_r")
		if err != nil {
			t.Fatal(err)
		}
		jr, err := ref.Join(ref2, on, "_l", "_r")
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("Join(%v) with %v", on, steps2), steps, jv, jr)
	}
}

// TestFromRowsBuildsOnlyNamedColumns: a column costs nothing until a query
// names it, and rendering reads cells out of the rows without building any.
func TestFromRowsBuildsOnlyNamedColumns(t *testing.T) {
	tab := FromRows(randomRows(rand.New(rand.NewSource(1)), 50))
	built := func() (names []string) {
		for _, c := range tab.cols {
			if c.strs != nil || c.ints != nil || c.uints != nil || c.floats != nil {
				names = append(names, c.name)
			}
		}
		return names
	}
	if got := built(); len(got) != 0 {
		t.Fatalf("FromRows built %v, want nothing", got)
	}
	_ = tab.Text()
	_ = tab.CSV()
	if got := built(); len(got) != 0 {
		t.Fatalf("rendering built %v, want nothing", got)
	}
	p, err := ParsePredicate("seed>1")
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := tab.Filter([]Predicate{p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := filtered.GroupBy([]string{"commit"}, []Agg{{Fn: "mean", Col: "throughput_iops"}}); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(built()), "[commit seed throughput_iops]"; got != want {
		t.Fatalf("filter on seed, group by commit, mean of throughput_iops built %s, want %s", got, want)
	}
	for _, c := range tab.cols {
		if n := len(c.strs) + len(c.ints) + len(c.uints) + len(c.floats); n != 0 && n != tab.Len() {
			t.Fatalf("column %s holds %d cells, want exactly %d", c.name, n, tab.Len())
		}
	}
}

// TestOperatorBuildsItsColumnsInOnePass: the columns one call names that are
// still promises are read out of the rows together, row by row — one pass
// over the rows per call, not one per column — and each is read only once.
func TestOperatorBuildsItsColumnsInOnePass(t *testing.T) {
	rows := randomRows(rand.New(rand.NewSource(2)), 40)
	tab := FromRows(rows)
	var reads []int // row index of every cell read, in order
	seen := map[string]int{}
	for _, c := range tab.cols {
		get := c.get
		c.get = func(r *resultstore.Row) resultstore.Value {
			reads = append(reads, int((uintptr(unsafe.Pointer(r))-uintptr(unsafe.Pointer(&rows[0])))/unsafe.Sizeof(rows[0])))
			seen[c.name]++
			return get(r)
		}
	}
	pred := func(expr string) Predicate {
		p, err := ParsePredicate(expr)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	calls := []struct {
		name string
		cols int
		run  func() error
	}{
		{"Filter", 3, func() error {
			_, err := tab.Filter([]Predicate{pred("commit=c1"), pred("seed>1"), pred("throughput_iops>0")})
			return err
		}},
		{"Sort", 2, func() error { _, err := tab.Sort([]string{"-write_amp", "label"}); return err }},
		{"GroupBy", 2, func() error { // commit is built already
			_, err := tab.GroupBy([]string{"experiment", "commit"}, []Agg{{Fn: "count"}, {Fn: "mean", Col: "read_mean_ns"}})
			return err
		}},
		{"Join", 2, func() error { // experiment is built already
			p, err := tab.Project([]string{"experiment", "index", "x"})
			if err != nil {
				return err
			}
			_, err = p.Join(p, []string{"experiment", "index"}, "_l", "_r")
			return err
		}},
	}
	for _, call := range calls {
		reads = reads[:0]
		if err := call.run(); err != nil {
			t.Fatalf("%s: %v", call.name, err)
		}
		if len(reads) != call.cols*len(rows) {
			t.Fatalf("%s read %d cells, want %d: %d new columns of %d rows", call.name, len(reads), call.cols*len(rows), call.cols, len(rows))
		}
		if !sort.IntsAreSorted(reads) {
			t.Fatalf("%s read its columns in more than one pass over the rows: %v", call.name, reads)
		}
	}
	for name, n := range seen {
		if n != len(rows) {
			t.Fatalf("column %s was read %d times for %d rows", name, n, len(rows))
		}
	}
}
