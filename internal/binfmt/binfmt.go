// Package binfmt is EagleTree's one binary framing: every record that crosses
// a process or a disk in binary (the prepared-device snapshot, the result
// store's segment, the captured IO trace) is a client of it.
//
// A framed record is the format's magic string, one version byte, a payload
// of varints, fixed64 words and length-prefixed bytes, and — for a sealed
// format — a little-endian CRC32 (IEEE) of the payload, verified before any
// field is parsed so corruption anywhere reports as the format's corrupt
// error rather than as a misleading field error. Each client keeps its own
// four sentinel errors; binfmt only wraps them.
//
//eagletree:typederrors
package binfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Format is one client's framing: its magic, its current version and the
// four sentinels every failure wraps, so errors.Is targets and message
// prefixes stay the client's own.
type Format struct {
	Magic   string
	Version byte
	// ErrMagic marks input that does not start with Magic.
	ErrMagic error
	// ErrVersion marks input written by another version.
	ErrVersion error
	// ErrTruncated marks input shorter than its own structure promises.
	ErrTruncated error
	// ErrCorrupt marks a checksum mismatch, trailing bytes or a field the
	// client refuses.
	ErrCorrupt error
}

// Begin appends the header (magic and version) to b.
func (f *Format) Begin(b []byte) []byte { return append(append(b, f.Magic...), f.Version) }

// Seal appends the CRC32 of the payload to b, a buffer that starts with the
// header Begin wrote.
func (f *Format) Seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(f.Magic)+1:]))
}

// Header checks magic and version and returns a reader over the rest of the
// input: the framing of a format without a checksum.
func (f *Format) Header(data []byte) (Reader, error) {
	if len(data) < len(f.Magic)+1 || string(data[:len(f.Magic)]) != f.Magic {
		return Reader{}, f.ErrMagic
	}
	if v := data[len(f.Magic)]; v != f.Version {
		return Reader{}, fmt.Errorf("%w: got %d, support %d", f.ErrVersion, v, f.Version)
	}
	return Reader{b: data[len(f.Magic)+1:], f: f}, nil
}

// Open checks the header and the checksum Seal wrote, and returns a reader
// over the payload alone.
func (f *Format) Open(data []byte) (Reader, error) {
	r, err := f.Header(data)
	if err != nil {
		return Reader{}, err
	}
	if len(r.b) < 4 {
		return Reader{}, fmt.Errorf("%w: no room for checksum", f.ErrTruncated)
	}
	payload := r.b[:len(r.b)-4]
	want := binary.LittleEndian.Uint32(r.b[len(payload):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Reader{}, fmt.Errorf("%w: checksum %08x, want %08x", f.ErrCorrupt, got, want)
	}
	r.b = payload
	return r, nil
}

// Reader reads one payload's fields in order. Its error is sticky: after the
// first failure every read returns the zero value, so a client decodes a
// whole section and checks Err or Done once.
type Reader struct {
	b   []byte
	off int
	err error
	f   *Format
}

// fail records input that ends inside the field at the current offset.
func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: at offset %d", r.f.ErrTruncated, r.off)
	}
}

// Corruptf records a field the client refuses, wrapped in the format's
// corrupt error, unless an earlier failure is already recorded.
func (r *Reader) Corruptf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.f.ErrCorrupt}, args...)...)
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Done returns the first failure, or ErrCorrupt when bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%w: %d trailing bytes", r.f.ErrCorrupt, len(r.b)-r.off)
	}
	return r.err
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// I64 reads a signed (zigzag) varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Fix64 reads a little-endian 64-bit word.
func (r *Reader) Fix64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads one byte, true unless zero.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Raw()) }

// Raw reads a length-prefixed byte string as a view of the input.
func (r *Reader) Raw() []byte {
	n := r.Count(1)
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// Count reads an element count for elements of at least size bytes each and
// refuses, as truncation, any count the unread input could not hold: a
// corrupt count never drives a large allocation.
func (r *Reader) Count(size int) int {
	v := r.U64()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.Len()/size) {
		r.err = fmt.Errorf("%w: %d elements of %d+ bytes at offset %d, %d bytes remain", r.f.ErrTruncated, v, size, r.off, r.Len())
		return 0
	}
	return int(v)
}

// Int32Column reads a count and that many signed varints, each truncated to
// 32 bits: the snapshot's page-map column, half a million elements on a
// 2 GiB device, hence one loop with the one- to three-byte encodings (every
// page index of a 2 GiB device) decoded inline and only wider ones handed to
// binary.Uvarint. Short input fails as I64 would: truncated at the offset of
// the varint that does not fit.
func (r *Reader) Int32Column() []int32 {
	out := make([]int32, r.Count(1))
	if r.err != nil {
		return out
	}
	b, off := r.b, r.off
	for i := range out {
		var u uint64
		n := 0
		if len(b)-off >= 3 {
			s := b[off : off+3]
			switch {
			case s[0] < 0x80:
				u, n = uint64(s[0]), 1
			case s[1] < 0x80:
				u, n = uint64(s[0]&0x7f)|uint64(s[1])<<7, 2
			case s[2] < 0x80:
				u, n = uint64(s[0]&0x7f)|uint64(s[1]&0x7f)<<7|uint64(s[2])<<14, 3
			}
		}
		if n == 0 { // four bytes or more, or the last two bytes of the input
			if u, n = binary.Uvarint(b[off:]); n <= 0 {
				r.off = off
				r.fail()
				return out
			}
		}
		off += n
		out[i] = int32(int64(u>>1) ^ -int64(u&1))
	}
	r.off = off
	return out
}
