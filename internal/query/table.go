// Package query is a small relational layer over the result store: tables
// of typed columns with filter, project, sort, group/aggregate and join —
// enough algebra to ask a corpus of persisted sweep rows real questions
// (which variant won across seeds, with what confidence; what changed
// between two commits) without hauling in a database.
//
// Everything is deterministic by construction: operations preserve or define
// row order explicitly, group order is first appearance, aggregate math runs
// in row order, and rendering is pure formatting — the same table always
// renders to the same bytes, across runs, machines and worker counts.
//
//eagletree:canonical
//eagletree:typederrors
package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"eagletree/internal/resultstore"
)

// Errors reported by the query layer. Wrapped with detail; match with
// errors.Is.
var (
	// ErrColumn marks a reference to a column the table does not have.
	ErrColumn = errors.New("query: unknown column")
	// ErrPredicate marks a filter expression that does not parse or cannot
	// apply to its column's kind.
	ErrPredicate = errors.New("query: bad predicate")
	// ErrAggregate marks an unknown aggregate function or one applied to a
	// non-numeric column.
	ErrAggregate = errors.New("query: bad aggregate")
	// ErrJoin marks a join whose key columns disagree between the tables.
	ErrJoin = errors.New("query: bad join")
)

// column is one typed, immutable column, shared by pointer; exactly one value
// slice is populated, selected by kind. One made by FromRows starts as a
// promise: it keeps the rows and fills its slice, in one allocation of exact
// size, the first time a query names it.
type column struct {
	name   string
	kind   resultstore.Kind
	better int8
	strs   []string
	ints   []int64
	uints  []uint64
	floats []float64

	once sync.Once
	rows []resultstore.Row // nil on a column made with its values
	get  func(*resultstore.Row) resultstore.Value
}

// build populates a promised column's value slice; it runs under c.once.
func (c *column) build() {
	if c.rows == nil {
		return
	}
	switch c.kind {
	case resultstore.KindString:
		c.strs = make([]string, len(c.rows))
	case resultstore.KindInt:
		c.ints = make([]int64, len(c.rows))
	case resultstore.KindUint:
		c.uints = make([]uint64, len(c.rows))
	default:
		c.floats = make([]float64, len(c.rows))
	}
	c.fill()
}

// fill copies the column's cell out of every row into the slice build sized.
//
//eagletree:hotpath
func (c *column) fill() {
	for i := range c.rows {
		switch v := c.get(&c.rows[i]); c.kind {
		case resultstore.KindString:
			c.strs[i] = v.Str
		case resultstore.KindInt:
			c.ints[i] = v.Int
		case resultstore.KindUint:
			c.uints[i] = v.Uint
		default:
			c.floats[i] = v.Float
		}
	}
}

// gather returns a new column called name holding c's cells at the given rows:
// the one populated value slice is gathered, the nil ones stay nil.
func (c *column) gather(name string, rows []int32) *column {
	c.once.Do(c.build)
	return &column{name: name, kind: c.kind, better: c.better, strs: gather(c.strs, rows),
		ints: gather(c.ints, rows), uints: gather(c.uints, rows), floats: gather(c.floats, rows)}
}

func gather[T any](src []T, rows []int32) []T {
	if src == nil {
		return nil
	}
	dst := make([]T, len(rows))
	for i, r := range rows {
		dst[i] = src[r]
	}
	return dst
}

// cell renders one value as its canonical text: strings verbatim, integers
// in decimal, floats in shortest round-trip form. A promised column reads its
// rows directly, so rendering a wide view builds nothing.
func (c *column) cell(i int) string {
	var v resultstore.Value
	switch {
	case c.rows != nil:
		v = c.get(&c.rows[i])
	case c.kind == resultstore.KindString:
		v.Str = c.strs[i]
	case c.kind == resultstore.KindInt:
		v.Int = c.ints[i]
	case c.kind == resultstore.KindUint:
		v.Uint = c.uints[i]
	default:
		v.Float = c.floats[i]
	}
	switch c.kind {
	case resultstore.KindString:
		return v.Str
	case resultstore.KindInt:
		return strconv.FormatInt(v.Int, 10)
	case resultstore.KindUint:
		return strconv.FormatUint(v.Uint, 10)
	default:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	}
}

// float returns the cell as a float64 for aggregation; counters up to 2^53
// convert exactly.
func (c *column) float(i int) float64 {
	switch c.kind {
	case resultstore.KindString:
		return 0
	case resultstore.KindInt:
		return float64(c.ints[i])
	case resultstore.KindUint:
		return float64(c.uints[i])
	default:
		return c.floats[i]
	}
}

// Table is an ordered set of rows over named typed columns: a view. sel lists,
// in table order, which rows of the shared columns it holds (nil: all n, in
// column order). Filter, Sort and Project return a new header over the same
// columns; a table never changes and is safe for concurrent readers.
type Table struct {
	cols []*column
	sel  []int32
	n    int
}

// Len returns the row count.
func (t *Table) Len() int { return t.n }

// row maps table position i to its row in the columns.
func (t *Table) row(i int) int {
	if t.sel == nil {
		return i
	}
	return int(t.sel[i])
}

// Names returns the column names in table order.
func (t *Table) Names() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.name
	}
	return names
}

// col finds a column by name, building it if it is still a promise.
func (t *Table) col(name string) (*column, error) {
	for _, c := range t.cols {
		if c.name == name {
			c.once.Do(c.build)
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (have %s)", ErrColumn, name, strings.Join(t.Names(), ", "))
}

// FromRows builds a table over the full result-store schema, one table row
// per store row, preserving row order. It keeps rows and reads a column out
// of them the first time a query names it: do not change rows afterwards.
func FromRows(rows []resultstore.Row) *Table {
	specs := resultstore.Columns()
	t := &Table{cols: make([]*column, len(specs)), n: len(rows)}
	for i, cs := range specs {
		t.cols[i] = &column{name: cs.Name, kind: cs.Kind, better: cs.Better, rows: rows, get: cs.Get}
	}
	return t
}
