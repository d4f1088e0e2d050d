package query

import (
	"strings"
	"unicode/utf8"

	"eagletree/internal/resultstore"
)

// Text renders the table as an aligned monospace grid: a header row, a rule,
// then one line per row. String cells are left-aligned, numeric cells
// right-aligned, padded by rune count. Output is a pure function of the table.
func (t *Table) Text() string {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = utf8.RuneCountInString(c.name)
		for r := 0; r < t.n; r++ {
			widths[i] = max(widths[i], utf8.RuneCountInString(c.cell(t.row(r))))
		}
	}
	var b strings.Builder
	writeCell := func(i int, s string, leftAlign bool) {
		if i > 0 {
			b.WriteString("  ")
		}
		pad := widths[i] - utf8.RuneCountInString(s)
		if !leftAlign {
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteString(s)
		if leftAlign && i < len(t.cols)-1 {
			b.WriteString(strings.Repeat(" ", pad))
		}
	}
	for i := range t.cols {
		writeCell(i, t.cols[i].name, t.cols[i].kind == resultstore.KindString)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for r := 0; r < t.n; r++ {
		for i, c := range t.cols {
			writeCell(i, c.cell(t.row(r)), c.kind == resultstore.KindString)
		}
		b.WriteByte('\n')
	}
	return b.String()
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
