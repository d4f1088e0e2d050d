package experiment

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
)

// suiteDef compiles one embedded suite document, looked up by id.
func suiteDef(t testing.TB, id string, s Scale) Definition {
	t.Helper()
	doc, ok := SuiteSpec(id, s)
	if !ok {
		t.Fatalf("the suite has no experiment %q", id)
	}
	def, err := FromSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// goldenDump renders every suite report at the scale for the two golden
// seeds, one bit-exact %#v line per variant, so any behavioral drift —
// scheduling, GC, wear leveling, latency accounting — shows up as a text
// diff. TestDumpGolden writes it to a file; TestFullScaleGolden compares it
// against the committed specs/full/golden.txt.
func goldenDump(t *testing.T, s Scale) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, seed := range []uint64{7, 12345} {
		for _, doc := range SuiteSpecs(s) {
			doc.Base.Seed = seed // as `eagletree sweep -seeds` varies it
			def, err := FromSpec(doc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := New(Options{}).Run(context.Background(), def)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				fmt.Fprintf(&buf, "seed=%d %s %s %#v\n", seed, res.Name, row.Label, row.Report)
			}
		}
	}
	return buf.Bytes()
}

// TestDumpGolden serializes every Small-scale suite report for two seeds so
// that hot-path rework can be checked for bit-identical results. Run with
// EAGLETREE_GOLDEN=/path/to/file to produce the dump; skipped otherwise.
func TestDumpGolden(t *testing.T) {
	path := os.Getenv("EAGLETREE_GOLDEN")
	if path == "" {
		t.Skip("set EAGLETREE_GOLDEN to dump")
	}
	if err := os.WriteFile(path, goldenDump(t, Small), 0o644); err != nil {
		t.Fatal(err)
	}
}
