package query

import (
	"strings"
	"unicode/utf8"

	"eagletree/internal/resultstore"
)

// Text renders the table as an aligned monospace grid: a header row, a rule,
// then one line per row. String cells are left-aligned, numeric cells
// right-aligned, padded by rune count. Output is a pure function of the table.
//
// Each cell is formatted once; the widths come from those strings, and the
// output is written into one buffer of its exact size.
func (t *Table) Text() string {
	ncols := len(t.cols)
	cells := make([][]string, ncols) // per column: the header, then each row
	widths := make([]int, ncols)
	size := 2 * max(ncols-1, 0) // the rule's separators
	for i, c := range t.cols {
		col := make([]string, t.n+1)
		col[0] = c.name
		for r := 0; r < t.n; r++ {
			col[r+1] = c.cell(t.row(r))
		}
		// Bytes beyond one per rune, and all bytes, for the exact size.
		multi, total := 0, 0
		for _, s := range col {
			runes := utf8.RuneCountInString(s)
			widths[i] = max(widths[i], runes)
			multi += len(s) - runes
			total += len(s)
		}
		cells[i] = col
		// The last column, when left-aligned, carries no trailing padding.
		if c.kind != resultstore.KindString || i < ncols-1 {
			size += (t.n+1)*widths[i] + multi
		} else {
			size += total
		}
		size += widths[i] // the rule
	}
	size += (t.n + 1) * 2 * max(ncols-1, 0) // cell separators
	size += t.n + 2                         // newlines

	var b strings.Builder
	b.Grow(size)
	line := func(r int) {
		for i, col := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			s := col[r]
			pad := widths[i] - utf8.RuneCountInString(s)
			left := t.cols[i].kind == resultstore.KindString
			if !left {
				repeat(&b, ' ', pad)
			}
			b.WriteString(s)
			if left && i < ncols-1 {
				repeat(&b, ' ', pad)
			}
		}
		b.WriteByte('\n')
	}
	line(0)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		repeat(&b, '-', w)
	}
	b.WriteByte('\n')
	for r := 1; r <= t.n; r++ {
		line(r)
	}
	return b.String()
}

// repeat writes n copies of the byte c without allocating.
func repeat(b *strings.Builder, c byte, n int) {
	for ; n > 0; n-- {
		b.WriteByte(c)
	}
}

// CSV renders the table as RFC-4180-ish CSV: header then rows, cells quoted
// only when they contain a comma, quote or newline.
func (t *Table) CSV() string {
	var b strings.Builder
	for i := range t.cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvCell(t.cols[i].name))
	}
	b.WriteByte('\n')
	for r := 0; r < t.n; r++ {
		for i, c := range t.cols {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvCell(c.cell(t.row(r))))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvCell(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}
