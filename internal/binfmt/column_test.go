package binfmt

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// columnRef is the obvious decoder the bulk loop replaced: a count, then one
// r.I64() per element. It stays here as the reference Int32Column is held to.
func columnRef(r *Reader) []int32 {
	out := make([]int32, r.Count(1))
	for i := range out {
		out[i] = int32(r.I64())
	}
	return out
}

// narrow is what an int32 column holds of vals: each truncated to 32 bits.
func narrow(vals []int64) []int32 {
	out := make([]int32, len(vals))
	for i, v := range vals {
		out[i] = int32(v)
	}
	return out
}

func encodeColumn(vals []int64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(vals)))
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// widths holds, for every varint length 1..10, the smallest and largest
// magnitudes of either sign that encode to it, plus the values the page map
// is made of (-1 for "unmapped", 0, small indices).
func widths() []int64 {
	vals := []int64{-1, 0, 1, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for w := 1; w < 10; w++ {
		edge := int64(1) << (7*w - 1) // zigzag(edge) is the first w+1-byte value
		vals = append(vals, edge-1, -edge, edge, -edge-1)
	}
	return vals
}

// decodeBoth runs the bulk loop and the reference over the same bytes and
// requires the same column, the same final offset and the same error.
func decodeBoth(t *testing.T, b []byte) ([]int32, error) {
	t.Helper()
	got, ref := &Reader{b: b, f: &testFormat}, &Reader{b: b, f: &testFormat}
	g, r := got.Int32Column(), columnRef(ref)
	if (got.err == nil) != (ref.err == nil) || (got.err != nil && got.err.Error() != ref.err.Error()) {
		t.Fatalf("bulk error %v, reference error %v", got.err, ref.err)
	}
	if got.err != nil {
		if !errors.Is(got.err, errTruncated) {
			t.Fatalf("bulk error %v is not ErrTruncated", got.err)
		}
		return nil, got.err
	}
	if got.off != ref.off {
		t.Fatalf("bulk stopped at offset %d, reference at %d", got.off, ref.off)
	}
	if !reflect.DeepEqual(g, r) {
		t.Fatalf("bulk column differs from the reference (%d elements)", len(r))
	}
	return g, nil
}

// TestColumnMatchesPerElement: the bulk varint loop against r.I64() per
// element, over every varint width (wider values truncate as the reference
// truncates them) and random columns.
func TestColumnMatchesPerElement(t *testing.T) {
	w := widths()
	var seen [binary.MaxVarintLen64 + 1]bool
	for _, v := range w {
		seen[len(binary.AppendVarint(nil, v))] = true
	}
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		if !seen[n] {
			t.Fatalf("the width table has no %d-byte varint", n)
		}
	}
	if col, err := decodeBoth(t, encodeColumn(w)); err != nil || !reflect.DeepEqual(col, narrow(w)) {
		t.Fatalf("every-width column: err %v, round trip equal %v", err, reflect.DeepEqual(col, narrow(w)))
	}

	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 200; round++ {
		vals := make([]int64, rng.Intn(300))
		for i := range vals {
			switch rng.Intn(5) {
			case 0:
				vals[i] = -1 // an unmapped LPN
			case 1:
				vals[i] = int64(rng.Intn(1 << 20)) // a 2 GiB device's page indices
			case 2:
				vals[i] = int64(int32(rng.Uint32()))
			case 3:
				vals[i] = int64(rng.Uint64())
			default:
				vals[i] = w[rng.Intn(len(w))]
			}
		}
		b := encodeColumn(vals)
		if col, err := decodeBoth(t, b); err != nil || (len(vals) > 0 && !reflect.DeepEqual(col, narrow(vals))) {
			t.Fatalf("round %d: err %v", round, err)
		}
		// Trailing bytes belong to the next field: both must stop at the same place.
		decodeBoth(t, append(b, 0xff, 0x01))
	}
}

// TestColumnTruncationMatchesPerElement cuts a small column at every byte
// offset — inside the count, between varints, mid-varint at every width —
// and requires the reference's ErrTruncated at the reference's offset. It
// also feeds the encodings binary.Varint rejects or tolerates: an 11-byte
// overlong varint and a padded non-canonical one.
func TestColumnTruncationMatchesPerElement(t *testing.T) {
	b := encodeColumn(widths())
	for cut := 0; cut < len(b); cut++ {
		if _, err := decodeBoth(t, b[:cut]); err == nil {
			t.Fatalf("column cut at %d of %d bytes decoded", cut, len(b))
		}
	}
	overlong := append([]byte{1}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	if _, err := decodeBoth(t, overlong); err == nil {
		t.Fatal("an 11-byte varint decoded")
	}
	for _, padded := range [][]byte{{2, 0x81, 0x00, 0x05}, {2, 0x81, 0x80, 0x00, 0x05}, {1, 0x81, 0x80, 0x80, 0x00}} {
		if _, err := decodeBoth(t, padded); err != nil {
			t.Fatalf("padded varint % x: %v", padded, err)
		}
	}
}
