package resultstore_test

import (
	"errors"
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
			for _, typed := range []error{resultstore.ErrNotStore, resultstore.ErrVersion,
				resultstore.ErrTruncated, resultstore.ErrCorrupt} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("DecodeSegment returned an untyped error: %v", err)
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
