package resultstore_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eagletree/internal/resultstore"
)

// FuzzDecodeStore hammers the segment decoder with mutated and truncated
// inputs. The contract under test: DecodeSegment returns one of the codec's
// typed errors — ErrNotStore, ErrVersion, ErrTruncated, ErrCorrupt — and
// never panics, never over-allocates on hostile length fields, and any input
// it accepts re-encodes cleanly. The committed corpus under
// testdata/fuzz/FuzzDecodeStore seeds the interesting shapes: a whole valid
// segment, a truncation, a bit flip and a bare magic header; the last seed
// promises more rows than its payload could hold.
func FuzzDecodeStore(f *testing.F) {
	valid := resultstore.EncodeSegment(sampleRows(3))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("EGTRES"))
	f.Add([]byte{})
	f.Add(inflatedSegment(4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := resultstore.DecodeSegment(data)
		if err != nil {
			if !typedStoreError(err) {
				t.Fatalf("DecodeSegment returned an untyped error: %v", err)
			}
			return
		}
		// The CRC gate means acceptance implies a well-formed payload; such
		// rows must survive re-encoding and decode back identically.
		again, err := resultstore.DecodeSegment(resultstore.EncodeSegment(rows))
		if err != nil {
			t.Fatalf("re-encoded accepted rows failed to decode: %v", err)
		}
		if len(again) != len(rows) {
			t.Fatalf("re-encode changed row count: %d -> %d", len(rows), len(again))
		}
	})
}

// typedStoreError reports whether err is one of the codec's typed errors.
func typedStoreError(err error) bool {
	for _, typed := range []error{resultstore.ErrNotStore, resultstore.ErrVersion,
		resultstore.ErrTruncated, resultstore.ErrCorrupt} {
		if errors.Is(err, typed) {
			return true
		}
	}
	return false
}

// FuzzStoreRows drives the store's multi-segment read path — header peek,
// one shared read buffer, strings interned across segments — over a
// directory of one valid segment followed by one mutated one. The contract is
// FuzzDecodeStore's: a typed error, here naming the mutated file, or, when
// the mutated segment is accepted, exactly the valid segment's rows followed
// by what DecodeSegment reads from it.
func FuzzStoreRows(f *testing.F) {
	valid := resultstore.EncodeSegment(sampleRows(3))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("EGTRES"))
	f.Add([]byte{})
	f.Add(inflatedSegment(4096))
	first := resultstore.EncodeSegment(sampleRows(2))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for name, seg := range map[string][]byte{"seg-000001.etres": first, "seg-000002.etres": data} {
			if err := os.WriteFile(filepath.Join(st.Dir(), name), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rows, err := st.Rows()
		if err != nil {
			if !typedStoreError(err) {
				t.Fatalf("Rows returned an untyped error: %v", err)
			}
			if !strings.Contains(err.Error(), "seg-000002.etres") {
				t.Fatalf("Rows' error does not name the mutated segment: %v", err)
			}
			return
		}
		tail, err := resultstore.DecodeSegment(data)
		if err != nil {
			t.Fatalf("Rows accepted a segment DecodeSegment refuses: %v", err)
		}
		if want := append(sampleRows(2), tail...); !reflect.DeepEqual(rows, want) {
			t.Fatalf("Rows read %d rows, want the valid segment's 2 then DecodeSegment's %d", len(rows), len(tail))
		}
	})
}
