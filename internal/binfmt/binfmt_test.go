package binfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

var (
	errMagic     = errors.New("test: not a test record")
	errVersion   = errors.New("test: unsupported version")
	errTruncated = errors.New("test: truncated")
	errCorrupt   = errors.New("test: corrupt")
)

var testFormat = Format{Magic: "TEST", Version: 2,
	ErrMagic: errMagic, ErrVersion: errVersion, ErrTruncated: errTruncated, ErrCorrupt: errCorrupt}

// typed reports which of the test format's sentinels err wraps, or nil.
func typed(err error) error {
	for _, s := range []error{errMagic, errVersion, errTruncated, errCorrupt} {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}

// sealed frames payload as a checksummed test record.
func sealed(payload []byte) []byte {
	return testFormat.Seal(append(testFormat.Begin(nil), payload...))
}

// fields is one of every field type, in the order readFields reads them.
func fields() []byte {
	b := binary.AppendUvarint(nil, 300)
	b = binary.AppendVarint(b, -5)
	b = binary.LittleEndian.AppendUint64(b, 1<<63|7)
	b = append(b, 'x', 1)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)
	b = binary.AppendUvarint(b, 2)
	b = append(b, 9, 8)
	b = binary.AppendUvarint(b, 2)
	return binary.AppendVarint(binary.AppendVarint(b, -1), 70000)
}

func readFields(r *Reader) []any {
	return []any{r.U64(), r.I64(), r.Fix64(), r.Byte(), r.Bool(), r.Str(), r.Raw(), r.Int32Column()}
}

func TestFramingRoundTrip(t *testing.T) {
	want := []any{uint64(300), int64(-5), uint64(1<<63 | 7), byte('x'), true, "abc", []byte{9, 8}, []int32{-1, 70000}}
	data := sealed(fields())
	if !bytes.HasPrefix(data, []byte("TEST\x02")) || len(data) != 5+len(fields())+4 {
		t.Fatalf("sealed record % x", data)
	}
	for name, open := range map[string]func([]byte) (Reader, error){
		"Open":   testFormat.Open,
		"Header": func(b []byte) (Reader, error) { return testFormat.Header(b[:len(b)-4]) },
	} {
		r, err := open(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := readFields(&r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read %v, want %v", name, got, want)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("%s: Done: %v", name, err)
		}
	}
}

func TestFramingErrors(t *testing.T) {
	data := sealed(fields())
	flipped := append([]byte(nil), data...)
	flipped[7] ^= 0x10
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, errMagic},
		{"magic only", []byte("TEST"), errMagic},
		{"bad magic", []byte("TESX\x02abcd"), errMagic},
		{"bad version", []byte("TEST\x03abcd"), errVersion},
		{"no checksum room", []byte("TEST\x02abc"), errTruncated},
		{"bit flip", flipped, errCorrupt},
	} {
		if _, err := testFormat.Open(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Every cut of the payload reaches the fields (Header has no checksum to
	// stop it) and fails as truncation.
	payload := fields()
	for cut := 0; cut < len(payload); cut++ {
		r, err := testFormat.Header(append(testFormat.Begin(nil), payload[:cut]...))
		if err != nil {
			t.Fatal(err)
		}
		readFields(&r)
		if err := r.Done(); !errors.Is(err, errTruncated) {
			t.Fatalf("cut at %d: got %v, want truncation", cut, err)
		}
	}
	r, _ := testFormat.Open(sealed(append(fields(), 0)))
	readFields(&r)
	if err := r.Done(); !errors.Is(err, errCorrupt) {
		t.Fatalf("trailing byte: got %v, want corrupt", err)
	}
	r, _ = testFormat.Open(sealed([]byte{1}))
	r.Corruptf("field %d refused", 7)
	r.U64()
	if err := r.Done(); !errors.Is(err, errCorrupt) || err.Error() != "test: corrupt: field 7 refused" {
		t.Fatalf("Corruptf: got %v", err)
	}
}

// TestCountBoundsByRemainingInput: a count that the unread bytes cannot hold
// at the element's minimum size is refused before anyone allocates for it.
func TestCountBoundsByRemainingInput(t *testing.T) {
	for _, tc := range []struct {
		count, size, rest int
		ok                bool
	}{
		{3, 1, 3, true}, {4, 1, 3, false}, {2, 8, 16, true}, {3, 8, 23, false}, {1 << 30, 8, 0, false},
	} {
		r := Reader{b: append(binary.AppendUvarint(nil, uint64(tc.count)), make([]byte, tc.rest)...), f: &testFormat}
		got := r.Count(tc.size)
		if ok := r.Err() == nil; ok != tc.ok || (ok && got != tc.count) || (!ok && (got != 0 || !errors.Is(r.Err(), errTruncated))) {
			t.Errorf("count %d of %d-byte elements in %d bytes: got %d, %v", tc.count, tc.size, tc.rest, got, r.Err())
		}
	}
}

// FuzzReader drives Open, Header and every Reader method, in the order a
// script picks, over arbitrary bytes. The contract: no panic, every error
// wraps one of the Format's four sentinels, Raw views stay inside the input,
// and Int32Column agrees with the per-element reference.
func FuzzReader(f *testing.F) {
	all := []byte{0, 1, 2, 3, 4, 5, 6, 0x17, 8, 9}
	f.Add(all, sealed(fields()))
	f.Add(all, sealed(fields())[:20])
	f.Add([]byte{7, 7, 7}, sealed(binary.AppendUvarint(nil, 1<<30)))
	f.Add([]byte{8}, sealed([]byte{2, 0x80, 0x80, 0x80, 0x80, 0x01, 0x81, 0x00}))
	f.Add([]byte{10, 0}, []byte("TEST\x02"))
	f.Add([]byte{}, []byte("TEST\x09\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, script, data []byte) {
		check := func(what string, err error) {
			if err != nil && typed(err) == nil {
				t.Fatalf("%s returned an untyped error: %v", what, err)
			}
		}
		r, err := testFormat.Open(data)
		check("Open", err)
		h, herr := testFormat.Header(data)
		check("Header", herr)
		raw := Reader{b: data, f: &testFormat}
		for _, r := range []*Reader{&r, &h, &raw} {
			if r.f == nil {
				continue // the framing refused the input
			}
			for _, op := range script {
				switch op % 11 {
				case 0:
					r.U64()
				case 1:
					r.I64()
				case 2:
					r.Fix64()
				case 3:
					r.Byte()
				case 4:
					r.Bool()
				case 5:
					r.Str()
				case 6:
					if p := r.Raw(); len(p) > len(data) {
						t.Fatalf("Raw returned %d bytes of a %d-byte input", len(p), len(data))
					}
				case 7:
					r.Count(int(op>>4) + 1)
				case 8:
					ref := *r
					want, got := columnRef(&ref), r.Int32Column()
					if ref.off != r.off || (ref.err == nil) != (r.err == nil) || (ref.err == nil && !reflect.DeepEqual(got, want)) {
						t.Fatalf("Int32Column: %v at %d (%v), reference %v at %d (%v)", got, r.off, r.err, want, ref.off, ref.err)
					}
				case 9:
					r.Len()
				case 10:
					r.Corruptf("op %d", op)
				}
				check("Reader", r.Err())
				if r.off > len(r.b) {
					t.Fatalf("offset %d past the %d-byte payload", r.off, len(r.b))
				}
			}
			check("Done", r.Done())
		}
	})
}
