package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"eagletree/internal/resultstore"
	"eagletree/internal/stats"
)

// Predicate is one parsed filter clause: column, operator, literal.
type Predicate struct {
	Col string
	Op  string
	Val string
}

// filterOps lists the comparison operators, two-character operators first so
// parsing never splits ">=" into ">" and "=".
var filterOps = []string{"!=", ">=", "<=", "=", "<", ">", "~"}

// ParsePredicate parses one "column OP literal" clause, split at its leftmost
// operator: the literal runs to the end of the clause and may itself hold
// operator characters ("label~qd=8"). Spaces around the operator are optional.
func ParsePredicate(expr string) (Predicate, error) {
	at, op := len(expr), ""
	for _, o := range filterOps {
		if i := strings.Index(expr, o); i >= 0 && i < at {
			at, op = i, o
		}
	}
	if col := strings.TrimSpace(expr[:at]); op != "" && col != "" {
		return Predicate{Col: col, Op: op, Val: strings.TrimSpace(expr[at+len(op):])}, nil
	}
	return Predicate{}, fmt.Errorf("%w: %q (want column OP value with OP one of %s)",
		ErrPredicate, expr, strings.Join(filterOps, " "))
}

// compiled is one predicate bound to its column: the literal as a one-cell
// column of the same kind, and which signs of cell − literal the operator
// accepts, indexed by sign+1 (none for ~, which asks for a substring).
type compiled struct {
	c, lit *column
	accept [3]bool
	substr bool
}

var accepts = map[string][3]bool{
	"=": {false, true, false}, "!=": {true, false, true},
	"<": {true, false, false}, "<=": {true, true, false},
	">": {false, false, true}, ">=": {false, true, true},
}

// Filter returns the rows of t satisfying every predicate, in order.
// String columns support = != ~ (substring); numeric columns support
// = != < <= > >=.
func (t *Table) Filter(preds []Predicate) (*Table, error) {
	comp := make([]compiled, len(preds))
	for k, p := range preds {
		c, err := t.col(p.Col)
		if err != nil {
			return nil, err
		}
		lit := &column{kind: c.kind, strs: []string{p.Val}, ints: []int64{0}, uints: []uint64{0}, floats: []float64{0}}
		switch c.kind {
		case resultstore.KindString:
			switch p.Op {
			case "=", "!=", "~":
			default:
				return nil, fmt.Errorf("%w: operator %q does not apply to string column %q", ErrPredicate, p.Op, p.Col)
			}
		case resultstore.KindInt:
			lit.ints[0], err = strconv.ParseInt(p.Val, 10, 64)
		case resultstore.KindUint:
			lit.uints[0], err = strconv.ParseUint(p.Val, 10, 64)
		case resultstore.KindFloat:
			lit.floats[0], err = strconv.ParseFloat(p.Val, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %q is not a valid literal for %s column %q", ErrPredicate, p.Val, c.kind, p.Col)
		}
		if c.kind != resultstore.KindString && p.Op == "~" {
			return nil, fmt.Errorf("%w: operator ~ applies only to string columns, not %s %q", ErrPredicate, c.kind, p.Col)
		}
		comp[k] = compiled{c: c, lit: lit, accept: accepts[p.Op], substr: p.Op == "~"}
	}
	sel := t.matching(comp, []int32{}) // never nil: nil would select every row
	return &Table{cols: t.cols, sel: sel, n: len(sel)}, nil
}

// matching appends to sel the column rows of t that satisfy all of comp.
//
//eagletree:hotpath
func (t *Table) matching(comp []compiled, sel []int32) []int32 {
rows:
	for i := 0; i < t.n; i++ {
		r := t.row(i)
		for k := range comp {
			cp := &comp[k]
			if cp.substr {
				if !strings.Contains(cp.c.strs[r], cp.lit.strs[0]) {
					continue rows
				}
			} else if !cp.accept[order(cp.c, r, cp.lit, 0)+1] {
				continue rows
			}
		}
		sel = append(sel, int32(r))
	}
	return sel
}

// order returns the sign of a's cell ra − b's cell rb, for columns of one kind.
//
//eagletree:hotpath
func order(a *column, ra int, b *column, rb int) int {
	switch a.kind {
	case resultstore.KindString:
		return strings.Compare(a.strs[ra], b.strs[rb])
	case resultstore.KindInt:
		return cmpOrd(a.ints[ra], b.ints[rb])
	case resultstore.KindUint:
		return cmpOrd(a.uints[ra], b.uints[rb])
	default:
		return cmpOrd(a.floats[ra], b.floats[rb])
	}
}

func cmpOrd[T int64 | uint64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Project returns a table holding only the named columns, in the given order.
func (t *Table) Project(names []string) (*Table, error) {
	out := &Table{cols: make([]*column, 0, len(names)), sel: t.sel, n: t.n}
	for _, name := range names {
		c, err := t.col(name)
		if err != nil {
			return nil, err
		}
		out.cols = append(out.cols, c)
	}
	return out, nil
}

// sorter orders table positions by key columns, earliest most significant.
type sorter struct {
	t    *Table
	keys []*column
	desc []bool
}

// compare orders two table positions; equal keys fall back to the positions
// themselves, which makes the order total and the sort stable.
//
//eagletree:hotpath
func (s *sorter) compare(a, b int32) int {
	ra, rb := s.t.row(int(a)), s.t.row(int(b))
	for k, c := range s.keys {
		if ord := order(c, ra, c, rb); ord != 0 {
			if s.desc[k] {
				return -ord
			}
			return ord
		}
	}
	return int(a - b)
}

// Sort returns the rows of t stably ordered by the named columns, earliest
// name most significant. Prefix a name with "-" for descending order.
func (t *Table) Sort(names []string) (*Table, error) {
	s := &sorter{t: t, keys: make([]*column, len(names)), desc: make([]bool, len(names))}
	for i, name := range names {
		s.desc[i] = strings.HasPrefix(name, "-")
		c, err := t.col(strings.TrimPrefix(name, "-"))
		if err != nil {
			return nil, err
		}
		s.keys[i] = c
	}
	sel := make([]int32, t.n)
	for i := range sel {
		sel[i] = int32(i)
	}
	slices.SortFunc(sel, s.compare)
	for i, pos := range sel {
		sel[i] = int32(t.row(int(pos)))
	}
	return &Table{cols: t.cols, sel: sel, n: t.n}, nil
}

// Agg is one aggregate request: a function applied to a column within each
// group.
type Agg struct {
	Fn  string
	Col string
}

// ParseAgg parses "fn(col)" or the bare "count".
func ParseAgg(expr string) (Agg, error) {
	if expr == "count" {
		return Agg{Fn: "count"}, nil
	}
	open := strings.Index(expr, "(")
	if open <= 0 || !strings.HasSuffix(expr, ")") {
		return Agg{}, fmt.Errorf("%w: %q (want fn(column), fn one of count mean std ci95 min max sum)", ErrAggregate, expr)
	}
	return Agg{Fn: expr[:open], Col: expr[open+1 : len(expr)-1]}, nil
}

// GroupBy partitions rows by the named key columns and computes the given
// aggregates within each group. Groups appear in first-appearance row order,
// so a pre-sorted table yields sorted groups and a grid-ordered table yields
// grid-ordered groups. The result holds the key columns followed by one
// column per aggregate, named "fn(col)"; count is a uint column, everything
// else is float.
func (t *Table) GroupBy(keyNames []string, aggs []Agg) (*Table, error) {
	keyCols := make([]*column, len(keyNames))
	for i, name := range keyNames {
		c, err := t.col(name)
		if err != nil {
			return nil, err
		}
		keyCols[i] = c
	}
	aggCols := make([]*column, len(aggs))
	for i, a := range aggs {
		switch a.Fn {
		case "count":
			continue
		case "mean", "std", "ci95", "min", "max", "sum":
		default:
			return nil, fmt.Errorf("%w: unknown function %q", ErrAggregate, a.Fn)
		}
		c, err := t.col(a.Col)
		if err != nil {
			return nil, err
		}
		if c.kind == resultstore.KindString {
			return nil, fmt.Errorf("%w: %s(%s) aggregates a string column", ErrAggregate, a.Fn, a.Col)
		}
		aggCols[i] = c
	}

	ch := t.chains(keyCols, 0)
	out := &Table{cols: make([]*column, 0, len(keyCols)+len(aggs)), n: len(ch.head)}
	for i, c := range keyCols {
		out.cols = append(out.cols, c.gather(keyNames[i], ch.first))
	}
	var xs []float64 // one group's values in row order, reused from group to group
	for i, a := range aggs {
		name := a.Fn
		if a.Col != "" {
			name = a.Fn + "(" + a.Col + ")"
		}
		if a.Fn == "count" {
			c := &column{name: name, kind: resultstore.KindUint, uints: make([]uint64, out.n)}
			for g, size := range ch.size {
				c.uints[g] = uint64(size)
			}
			out.cols = append(out.cols, c)
			continue
		}
		src := aggCols[i]
		c := &column{name: name, kind: resultstore.KindFloat, better: src.better, floats: make([]float64, out.n)}
		for g := range c.floats {
			xs = xs[:0]
			for i := ch.head[g]; i >= 0; i = ch.next[i] {
				xs = append(xs, src.float(t.row(int(i))))
			}
			c.floats[g] = aggregate(a.Fn, xs)
		}
		out.cols = append(out.cols, c)
	}
	return out, nil
}

func aggregate(fn string, xs []float64) float64 {
	switch fn {
	case "mean":
		return stats.Summarize(xs).Mean
	case "std":
		return stats.Summarize(xs).Std
	case "ci95":
		return stats.Summarize(xs).CI95
	case "sum":
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	case "min":
		m := xs[0]
		for _, x := range xs[1:] {
			if x < m {
				m = x
			}
		}
		return m
	default: // max
		m := xs[0]
		for _, x := range xs[1:] {
			if x > m {
				m = x
			}
		}
		return m
	}
}

// chains partitions a table's positions by composite key: the positions
// sharing a key form one chain in table order, and chains are numbered in
// order of first appearance.
type chains struct {
	of    map[string]int32 // composite key → chain
	head  []int32          // chain → its first position
	first []int32          // chain → the column row at that position
	size  []int32          // chain → how many positions it holds
	next  []int32          // position → the next one in its chain, -1 at the end
}

func (t *Table) chains(keys []*column, distinct int) *chains {
	ch := &chains{of: make(map[string]int32, distinct), next: make([]int32, t.n)}
	var tail []int32 // chain → its last position so far
	var key []byte
	for i := range ch.next {
		key = appendKey(key[:0], keys, t.row(i))
		g, ok := ch.of[string(key)]
		if !ok {
			g = int32(len(ch.head))
			ch.of[string(key)] = g
			ch.head = append(ch.head, int32(i))
			ch.first = append(ch.first, int32(t.row(i)))
			ch.size = append(ch.size, 0)
			tail = append(tail, int32(i))
		}
		ch.next[tail[g]], tail[g] = int32(i), int32(i)
		ch.next[i] = -1
		ch.size[g]++
	}
	return ch
}

// appendKey appends one row's key cells such that two keys are equal exactly
// when every cell's canonical text is: strings length-prefixed, so cells never
// collide across boundaries ("a"+"bc" vs "ab"+"c"), numbers ';'-terminated.
func appendKey(b []byte, keys []*column, row int) []byte {
	for _, c := range keys {
		switch c.kind {
		case resultstore.KindString:
			b = strconv.AppendInt(b, int64(len(c.strs[row])), 10)
			b = append(append(b, ':'), c.strs[row]...)
			continue
		case resultstore.KindInt:
			b = strconv.AppendInt(b, c.ints[row], 10)
		case resultstore.KindUint:
			b = strconv.AppendUint(b, c.uints[row], 10)
		default:
			b = strconv.AppendFloat(b, c.floats[row], 'g', -1, 64)
		}
		b = append(b, ';')
	}
	return b
}

// Join inner-joins t with other on the named key columns, which must exist
// with identical kinds in both tables. The result holds the key columns, then
// t's remaining columns, then other's remaining columns; a name present on
// both sides gets the given suffixes. Output order is t's row order, ties
// within a key following other's row order — deterministic for deterministic
// inputs.
func (t *Table) Join(other *Table, on []string, suffixL, suffixR string) (*Table, error) {
	lk := make([]*column, len(on))
	rk := make([]*column, len(on))
	for i, name := range on {
		lc, err := t.col(name)
		if err != nil {
			return nil, err
		}
		rc, err := other.col(name)
		if err != nil {
			return nil, err
		}
		if lc.kind != rc.kind {
			return nil, fmt.Errorf("%w: key %q is %s on the left, %s on the right", ErrJoin, name, lc.kind, rc.kind)
		}
		lk[i], rk[i] = lc, rc
	}

	// Every left row beside each right row of the chain its key names.
	ch := other.chains(rk, other.n) // a join key is close to unique on one side
	lRows := make([]int32, 0, t.n)
	rRows := make([]int32, 0, t.n)
	var key []byte
	for i := 0; i < t.n; i++ {
		key = appendKey(key[:0], lk, t.row(i))
		g, ok := ch.of[string(key)]
		if !ok {
			continue
		}
		for j := ch.head[g]; j >= 0; j = ch.next[j] {
			lRows = append(lRows, int32(t.row(i)))
			rRows = append(rRows, int32(other.row(int(j))))
		}
	}

	out := &Table{n: len(lRows)}
	appendSide := func(src *Table, rows []int32, suffix string, keysToo bool) {
		for _, c := range src.cols {
			if slices.Contains(on, c.name) != keysToo {
				continue
			}
			name := c.name
			if !keysToo && collides(t, other, name) {
				name += suffix
			}
			out.cols = append(out.cols, c.gather(name, rows))
		}
	}
	appendSide(t, lRows, suffixL, true)
	appendSide(t, lRows, suffixL, false)
	appendSide(other, rRows, suffixR, false)
	return out, nil
}

// collides reports whether a non-key column name exists on both sides.
func collides(l, r *Table, name string) bool {
	_, lerr := l.col(name)
	_, rerr := r.col(name)
	return lerr == nil && rerr == nil
}
