package resultstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"eagletree/internal/resultstore"
)

// TestConcurrentAppenders: goroutines appending through two Store values on
// one directory each land their segment under a number of its own — none is
// lost or overwritten, and Rows returns every appended row exactly once.
func TestConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	var stores [2]*resultstore.Store
	for i := range stores {
		st, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	const goroutines, appends, perSegment = 6, 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < appends; a++ {
				rows := sampleRows(perSegment)
				for i := range rows {
					rows[i].Index = (g*appends+a)*perSegment + i
				}
				if err := stores[g%2].Append(rows); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	segs, err := stores[0].Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != goroutines*appends {
		t.Fatalf("%d segments after %d appends", len(segs), goroutines*appends)
	}
	for i, seg := range segs {
		if want := fmt.Sprintf("seg-%06d.etres", i+1); seg != want {
			t.Fatalf("segment %d is %s, want %s: numbers must be dense and in order", i, seg, want)
		}
	}
	rows, err := stores[1].Rows()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, goroutines*appends*perSegment)
	for _, r := range rows {
		seen[r.Index]++
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("row %d read back %d times, want once", idx, n)
		}
	}
}

// TestSegmentsInSequenceOrder: segments are listed by sequence number, not by
// name, so seg-1000000 follows seg-999999; Append continues after the last.
func TestSegmentsInSequenceOrder(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"seg-1000000.etres", "seg-999999.etres", "seg-000002.etres"} {
		if err := os.WriteFile(filepath.Join(dir, name), resultstore.EncodeSegment(sampleRows(1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(sampleRows(2)); err != nil {
		t.Fatal(err)
	}
	segs, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"seg-000002.etres", "seg-999999.etres", "seg-1000000.etres", "seg-1000001.etres"}
	if !reflect.DeepEqual(segs, want) {
		t.Fatalf("segments %v, want %v", segs, want)
	}
}

// segmentRows builds k segments of rows whose long variant keys and labels
// repeat from segment to segment, as replicated sweeps of one document do.
func segmentRows(k, perSegment, variants int) [][]resultstore.Row {
	segs := make([][]resultstore.Row, k)
	for s := range segs {
		rows := sampleRows(perSegment)
		for i := range rows {
			v := (s*7 + i) % variants
			rows[i].Commit = fmt.Sprintf("commit-%d", s%2)
			rows[i].Seed = uint64(s)
			rows[i].Variant = fmt.Sprintf("spec1|{\"v\":%04d,\"pad\":%q}", v, strings.Repeat("x", 1000))
			rows[i].Label = fmt.Sprintf("v=%d", v)
		}
		segs[s] = rows
	}
	return segs
}

func appendAll(t *testing.T, segs [][]resultstore.Row) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range segs {
		if err := st.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestRowsMatchesDecodeSegment: Rows equals DecodeSegment over each segment
// file in order, concatenated, and each segment's part of it re-encodes to
// exactly the file's bytes.
func TestRowsMatchesDecodeSegment(t *testing.T) {
	segs := segmentRows(5, 40, 9)
	segs = append(segs, sampleRows(1), sampleRows(13))
	st := appendAll(t, segs)
	rows, err := st.Rows()
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	var want []resultstore.Row
	at := 0
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(st.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		part, err := resultstore.DecodeSegment(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want = append(want, part...)
		if at+len(part) > len(rows) {
			t.Fatalf("Rows returned %d rows, the segments hold more", len(rows))
		}
		if got := resultstore.EncodeSegment(rows[at : at+len(part)]); !bytes.Equal(got, data) {
			t.Fatalf("%s: Rows' part re-encodes to %d bytes that differ from the file's %d", name, len(got), len(data))
		}
		at += len(part)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("Rows differs from DecodeSegment over each segment (%d rows against %d)", len(rows), len(want))
	}
}

// TestSegmentHeaderFitsThePeek: Rows learns a segment's row count from its
// first 4 KiB, so the header of this schema must fit in them; a segment of
// no rows is the header, one empty dictionary per string column and the
// checksum.
func TestSegmentHeaderFitsThePeek(t *testing.T) {
	if n := len(resultstore.EncodeSegment(nil)); n > 4<<10 {
		t.Fatalf("an empty segment takes %d bytes; Rows peeks at 4096 for the header", n)
	}
}

// TestRowsRefusesInflatedHeader: a segment whose header promises more rows
// than its bytes can hold, between two valid ones, is a typed error naming
// it, found before the result is allocated — whether or not its checksum
// holds.
func TestRowsRefusesInflatedHeader(t *testing.T) {
	for _, resealed := range []bool{true, false} {
		t.Run(fmt.Sprintf("checksum-valid=%v", resealed), func(t *testing.T) {
			st := appendAll(t, [][]resultstore.Row{sampleRows(4)})
			bad := inflatedSegment(1 << 16)
			if !resealed {
				bad[len(bad)-1] ^= 0xff
			}
			if err := os.WriteFile(filepath.Join(st.Dir(), "seg-000002.etres"), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := st.Append(sampleRows(3)); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := st.Rows()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, resultstore.ErrCorrupt) && !errors.Is(err, resultstore.ErrTruncated) {
				t.Fatalf("got %v, want ErrCorrupt or ErrTruncated", err)
			}
			if !strings.Contains(err.Error(), "seg-000002.etres") {
				t.Fatalf("error should name the inflated segment: %v", err)
			}
			// 65536 promised rows would be 22 MB of result.
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("Rows allocated %d bytes before refusing a %d-byte segment", got, len(bad))
			}
		})
	}
}

// TestRowsAllocationBound: on a store of many segments whose strings repeat,
// Rows allocates the result slice, one buffer the size of the largest
// segment, each distinct string once and a small constant — not a buffer
// per segment, and not a copy of every string per segment.
func TestRowsAllocationBound(t *testing.T) {
	const k, perSegment, variants = 12, 200, 100
	st := appendAll(t, segmentRows(k, perSegment, variants))
	names, err := st.Segments()
	if err != nil {
		t.Fatal(err)
	}
	var largest uint64
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(st.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, uint64(fi.Size()))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows, err := st.Rows()
	runtime.ReadMemStats(&after)
	if err != nil || len(rows) != k*perSegment {
		t.Fatalf("Rows: %d rows, %v", len(rows), err)
	}

	// Every distinct string, whatever its column, at its length plus the
	// interning map's slot for it.
	const perString = 128
	distinct := map[string]bool{}
	var stringBytes uint64
	for i := range rows {
		for _, c := range resultstore.Columns() {
			if s := c.Get(&rows[i]).Str; c.Kind == resultstore.KindString && !distinct[s] {
				distinct[s] = true
				stringBytes += uint64(len(s)) + perString
			}
		}
	}
	rowBytes := uint64(len(rows)) * uint64(unsafe.Sizeof(resultstore.Row{}))
	const slack = 128 << 10
	budget := rowBytes + largest + stringBytes + slack
	got := after.TotalAlloc - before.TotalAlloc
	if got > budget {
		t.Fatalf("Rows allocated %d bytes; budget %d = %d of rows + %d largest segment + %d of %d distinct strings + %d",
			got, budget, rowBytes, largest, stringBytes, len(distinct), slack)
	}
}

// TestAppendWritesWithoutCopy: Append writes the pooled encoder's sealed
// buffer to its file; it makes no copy of the segment. The least of several
// appends is measured, since the pool may drop its encoder at a collection.
func TestAppendWritesWithoutCopy(t *testing.T) {
	rows := segmentRows(1, 200, 100)[0]
	size := uint64(len(resultstore.EncodeSegment(rows)))
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(1 << 62)
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := st.Append(rows); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > size/4 {
		t.Fatalf("an Append of a %d-byte segment allocates at least %d bytes: the segment is copied", size, least)
	}
}
