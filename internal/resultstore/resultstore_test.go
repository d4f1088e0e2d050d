package resultstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/resultstore"
	"eagletree/internal/sim"
	"eagletree/internal/spec"
)

// sampleRows builds n rows exercising every column kind: repeated and
// distinct strings (dictionary hits and misses), zero and large integers,
// negative-capable ints, and floats including exact-bit values.
func sampleRows(n int) []resultstore.Row {
	rows := make([]resultstore.Row, n)
	for i := range rows {
		r := &rows[i]
		r.Experiment = "E9-demo"
		r.Spec = "abc123"
		r.Commit = fmt.Sprintf("commit-%d", i%2)
		r.Seed = uint64(7 + i)
		r.Index = i
		r.Variant = fmt.Sprintf("spec1|{\"i\":%d}", i)
		r.Label = fmt.Sprintf("v%d", i%3)
		r.X = float64(i) * 0.5
		r.Report = core.Report{
			Duration:   sim.Duration(1e9 + i),
			Throughput: 1234.5 + float64(i),
			ReadLatency: core.LatencySummary{
				Count: uint64(1000 * i), Mean: sim.Duration(2000 + i),
				Std: sim.Duration(10), P99: sim.Duration(9000), Max: sim.Duration(12000),
			},
			WriteLatency: core.LatencySummary{
				Count: uint64(2000 * i), Mean: sim.Duration(5000 - i),
				Std: sim.Duration(40), P99: sim.Duration(20000), Max: sim.Duration(31000),
			},
			GCMigratedPages:    uint64(i * 17),
			GCErases:           uint64(i * 3),
			WLMigratedPages:    uint64(i),
			TransReads:         uint64(i * 100),
			TransWrites:        uint64(i * 90),
			WriteAmplification: 1.0 + float64(i)/16,
			Wear: core.WearSummary{
				MinErase: i, MaxErase: i + 9, MeanErase: float64(i) + 4.5,
				StdErase: 0.25, PastEndurance: i % 2, BadBlocks: i % 3,
			},
			Retries:        uint64(i % 5),
			Relocations:    uint64(i % 7),
			EraseFailures:  uint64(i % 2),
			GrownBadBlocks: uint64(i % 3),
			EffectiveOP:    0.07 + float64(i)/100,
			MaxPendingOS:   i + 1,
			MaxInFlight:    i + 2,
		}
	}
	return rows
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 13} {
		rows := sampleRows(n)
		data := resultstore.EncodeSegment(rows)
		got, err := resultstore.DecodeSegment(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(rows, got) {
			t.Fatalf("n=%d: round-trip mismatch\n got %#v\nwant %#v", n, got[0], rows[0])
		}
		// Canonical encoding: re-encoding the decoded rows reproduces the
		// exact bytes.
		if again := resultstore.EncodeSegment(got); string(again) != string(data) {
			t.Fatalf("n=%d: re-encode differs", n)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rows := sampleRows(8)
	a := resultstore.EncodeSegment(rows)
	b := resultstore.EncodeSegment(sampleRows(8))
	if string(a) != string(b) {
		t.Fatal("same rows encoded to different bytes")
	}
}

// reseal recomputes the trailing CRC after a payload mutation, so the test
// reaches the structural checks behind the checksum gate.
func reseal(data []byte) []byte {
	payload := data[len("EGTRES")+1 : len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(payload))
	return data
}

func TestDecodeTypedErrors(t *testing.T) {
	valid := resultstore.EncodeSegment(sampleRows(3))

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20

	badVersion := append([]byte(nil), valid...)
	badVersion[len("EGTRES")] = 0x7f

	trailing := append(append([]byte(nil), valid[:len(valid)-4]...), 0xee)
	trailing = append(trailing, valid[len(valid)-4:]...)

	// Drift one byte of the first embedded column name ("experiment") and
	// reseal: the checksum passes, the schema comparison must refuse.
	drift := append([]byte(nil), valid...)
	drift[len("EGTRES")+1+1+1] ^= 0x01 // ncols uvarint, name length, first name byte
	drift = reseal(drift)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, resultstore.ErrNotStore},
		{"bad magic", []byte("NOTRESX\x01"), resultstore.ErrNotStore},
		{"magic only", []byte("EGTRES"), resultstore.ErrNotStore},
		{"bad version", badVersion, resultstore.ErrVersion},
		{"no checksum room", []byte("EGTRES\x01\x00"), resultstore.ErrTruncated},
		{"bit flip", flipped, resultstore.ErrCorrupt},
		{"truncated", append([]byte(nil), valid[:len(valid)-9]...), resultstore.ErrCorrupt},
		{"trailing bytes", trailing, resultstore.ErrCorrupt},
		{"schema drift", drift, resultstore.ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := resultstore.DecodeSegment(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// inflatedSegment is a checksum-valid segment of this schema that promises
// nrows rows and then holds only nrows zero bytes: one byte per row, where
// the narrowest real row takes one per column.
func inflatedSegment(nrows int) []byte {
	empty := resultstore.EncodeSegment(nil)
	// An empty segment ends: row count 0, one empty dictionary per string
	// column, checksum.
	strCols := 0
	for _, c := range resultstore.Columns() {
		if c.Kind == resultstore.KindString {
			strCols++
		}
	}
	data := append([]byte(nil), empty[:len(empty)-4-strCols-1]...)
	data = binary.AppendUvarint(data, uint64(nrows))
	data = append(data, make([]byte, nrows+4)...)
	return reseal(data)
}

// TestDecodeRejectsInflatedRowCount: a row count the payload cannot hold is
// refused before any row is allocated — 65536 promised rows would be 22 MB.
func TestDecodeRejectsInflatedRowCount(t *testing.T) {
	data := inflatedSegment(1 << 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := resultstore.DecodeSegment(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, resultstore.ErrCorrupt) || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("got %v, want ErrCorrupt naming the row count", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("DecodeSegment allocated %d bytes before refusing %d bytes of input", got, len(data))
	}

	// The store's decode-into path runs the same check.
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), "seg-000001.etres"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rows(); !errors.Is(err, resultstore.ErrCorrupt) || !strings.Contains(err.Error(), "seg-000001.etres") {
		t.Fatalf("Rows: got %v, want ErrCorrupt naming the segment", err)
	}
}

// TestGoldenSegment pins the on-disk format across commits: testdata holds
// sampleRows(5) as the encoder wrote them before the codec walked rows
// through typed accessors (commit d065266). Today's decoder must read exactly
// those rows out of it and today's encoder must write exactly those bytes.
func TestGoldenSegment(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-v1.etres"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := resultstore.DecodeSegment(golden)
	if err != nil {
		t.Fatal(err)
	}
	if want := sampleRows(5); !reflect.DeepEqual(rows, want) {
		t.Fatalf("golden segment decodes to\n%#v\nwant\n%#v", rows, want)
	}
	if got := resultstore.EncodeSegment(rows); !bytes.Equal(got, golden) {
		t.Fatalf("re-encoding the golden rows gives %d bytes that differ from the %d golden ones", len(got), len(golden))
	}
}

func TestStoreAppendRead(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	first := sampleRows(3)
	second := sampleRows(5)[3:]
	if err := st.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(nil); err != nil { // no-op
		t.Fatal(err)
	}
	if err := st.Append(second); err != nil {
		t.Fatal(err)
	}
	segs, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"seg-000001.etres", "seg-000002.etres"}; !reflect.DeepEqual(segs, want) {
		t.Fatalf("segments %v, want %v", segs, want)
	}
	rows, err := st.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]resultstore.Row(nil), first...), second...); !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows mismatch: got %d rows", len(rows))
	}
}

// TestRowsAllocatesItsResultOnce: reading 20 segments back allocates the
// result slice once at its final size — not one slice per segment copied
// into a tail that regrows as it goes.
func TestRowsAllocatesItsResultOnce(t *testing.T) {
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const segments, perSegment = 20, 250
	for i := 0; i < segments; i++ {
		if err := st.Append(sampleRows(perSegment)); err != nil {
			t.Fatal(err)
		}
	}
	var fileBytes uint64
	segs, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(filepath.Join(st.Dir(), seg))
		if err != nil {
			t.Fatal(err)
		}
		fileBytes += uint64(fi.Size())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows, err := st.Rows()
	runtime.ReadMemStats(&after)
	if err != nil || len(rows) != segments*perSegment {
		t.Fatalf("Rows: %d rows, %v", len(rows), err)
	}
	// One result slice, plus the segment files read and the dictionary
	// strings cut out of them — both bounded by the bytes on disk.
	rowBytes := uint64(len(rows)) * uint64(unsafe.Sizeof(resultstore.Row{}))
	if got, budget := after.TotalAlloc-before.TotalAlloc, rowBytes+3*fileBytes; got > budget {
		t.Fatalf("Rows allocated %d bytes for %d bytes of rows and %d bytes of segments (budget %d): the result is being copied",
			got, rowBytes, fileBytes, budget)
	}
}

func TestStoreNamesCorruptSegment(t *testing.T) {
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(sampleRows(2)); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(st.Dir(), "seg-000002.etres")
	if err := os.WriteFile(bad, []byte("EGTRES\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Rows()
	if !errors.Is(err, resultstore.ErrTruncated) && !errors.Is(err, resultstore.ErrCorrupt) {
		t.Fatalf("want a typed decode error, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "seg-000002.etres") {
		t.Fatalf("error should name the segment file: %v", err)
	}
}

// suiteDoc fetches a predefined small-scale suite document by id prefix.
func suiteDoc(t testing.TB, id string) spec.Experiment {
	t.Helper()
	for _, e := range experiment.SuiteSpecs(experiment.Small) {
		if strings.HasPrefix(e.Name, id+"-") {
			return e
		}
	}
	t.Fatalf("no suite experiment %s", id)
	return spec.Experiment{}
}

func TestSinkCapturesRowsWithProvenance(t *testing.T) {
	doc := suiteDoc(t, "E2")
	def, err := experiment.FromSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := def.Keys()
	if err != nil {
		t.Fatal(err)
	}
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sink, err := resultstore.NewSink(st, doc, "deadbeef")
	if err != nil {
		t.Fatal(err)
	}

	report := core.Report{Throughput: 99.5, Duration: sim.Duration(5e9)}
	// Completions arrive out of order; a failure, a foreign experiment and an
	// out-of-range index must all be ignored.
	sink.OnEvent(experiment.Event{Kind: experiment.EventVariantDone, Experiment: doc.Name, Index: 1,
		Row: &experiment.Row{Label: "x", Report: report}})
	sink.OnEvent(experiment.Event{Kind: experiment.EventVariantDone, Experiment: doc.Name, Index: 0,
		Row: &experiment.Row{Label: "y", Report: report}})
	sink.OnEvent(experiment.Event{Kind: experiment.EventVariantDone, Experiment: doc.Name, Index: 2,
		Err: errors.New("boom")})
	sink.OnEvent(experiment.Event{Kind: experiment.EventVariantDone, Experiment: "other", Index: 3,
		Row: &experiment.Row{Report: report}})
	sink.OnEvent(experiment.Event{Kind: experiment.EventVariantDone, Experiment: doc.Name, Index: 99,
		Row: &experiment.Row{Report: report}})

	rows := sink.Rows()
	if len(rows) != 2 {
		t.Fatalf("captured %d rows, want 2", len(rows))
	}
	for i, r := range rows {
		if r.Index != i {
			t.Fatalf("row %d has index %d: rows must come back in grid order", i, r.Index)
		}
		if r.Experiment != doc.Name || r.Commit != "deadbeef" {
			t.Fatalf("row %d provenance: %+v", i, r)
		}
		if r.Variant != keys[i] {
			t.Fatalf("row %d variant key %q, want %q", i, r.Variant, keys[i])
		}
		if r.Seed == 0 {
			t.Fatalf("row %d: seed must be resolved (0 normalizes to 1)", i)
		}
		if r.Report.Throughput != 99.5 {
			t.Fatalf("row %d report not captured: %+v", i, r.Report)
		}
	}

	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	stored, err := st.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stored, rows) {
		t.Fatal("flushed rows differ from captured rows")
	}
}

func TestColumnsSchema(t *testing.T) {
	cols := resultstore.Columns()
	seen := map[string]bool{}
	row := sampleRows(1)[0]
	for _, c := range cols {
		if seen[c.Name] {
			t.Fatalf("duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		// Get/Set must be inverses on every column.
		v := c.Get(&row)
		var blank resultstore.Row
		c.Set(&blank, v)
		if got := c.Get(&blank); got != v {
			t.Fatalf("column %q: set %+v then get %+v", c.Name, v, got)
		}
	}
	thr, ok := resultstore.Column("throughput_iops")
	if !ok || thr.Better != 1 {
		t.Fatalf("throughput_iops polarity: %+v ok=%v", thr, ok)
	}
	wa, ok := resultstore.Column("write_amp")
	if !ok || wa.Better != -1 {
		t.Fatalf("write_amp polarity: %+v ok=%v", wa, ok)
	}
	if _, ok := resultstore.Column("no_such"); ok {
		t.Fatal("Column found a column that does not exist")
	}
}
