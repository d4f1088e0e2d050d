package resultstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
)

// The segment layout follows the snapshot codec's conventions: 6 magic
// bytes, 1 version byte, a payload, and a little-endian CRC32 (IEEE) of the
// payload. The CRC is verified before any field is parsed, so corruption
// anywhere in the payload reports as ErrCorrupt rather than as a misleading
// field error.
//
// The payload is columnar: the embedded schema (column names and kinds, so
// drift between writer and reader is a typed refusal, never silent
// misalignment), the row count, then one column at a time — string columns
// as a dictionary plus per-row indices, integer columns as varints, float
// columns as bit-exact fixed64 words.
const (
	segMagic   = "EGTRES"
	segVersion = 1
)

// Errors reported by the segment codec and the store. Wrapped with detail;
// match with errors.Is.
var (
	// ErrNotStore marks input (or a directory entry) that is not a result
	// segment.
	ErrNotStore = errors.New("resultstore: not a result segment")
	// ErrVersion marks a segment written by an unknown format version or
	// with a drifted column schema.
	ErrVersion = errors.New("resultstore: unsupported segment version")
	// ErrTruncated marks input shorter than its own structure promises.
	ErrTruncated = errors.New("resultstore: truncated segment")
	// ErrCorrupt marks a payload whose checksum or structure does not match.
	ErrCorrupt = errors.New("resultstore: corrupt segment")
)

// encoders recycles the encoder's buffer, dictionary and reference scratch
// from one segment to the next; they settle at the largest segment's size.
var encoders = sync.Pool{New: func() any { return &enc{dictIdx: make(map[string]uint64)} }}

// EncodeSegment serializes rows to one immutable columnar segment.
func EncodeSegment(rows []Row) []byte {
	e := encoders.Get().(*enc)
	e.b = append(append(e.b[:0], segMagic...), segVersion)
	cols := Columns()
	e.u64(uint64(len(cols)))
	for _, c := range cols {
		e.str(c.Name)
		e.b = append(e.b, byte(c.Kind))
	}
	e.u64(uint64(len(rows)))
	for _, c := range cols {
		switch c.Kind {
		case KindString:
			for i := range rows {
				e.dictRef(*c.atStr(&rows[i]))
			}
			e.flushDict()
		case KindInt:
			for i := range rows {
				e.i64(c.getInt(&rows[i]))
			}
		case KindUint:
			for i := range rows {
				e.u64(*c.atUint(&rows[i]))
			}
		case KindFloat:
			for i := range rows {
				e.fix64(math.Float64bits(*c.atFloat(&rows[i])))
			}
		}
	}
	sum := crc32.ChecksumIEEE(e.b[len(segMagic)+1:])
	e.b = binary.LittleEndian.AppendUint32(e.b, sum)
	out := bytes.Clone(e.b) // the caller's own, at exactly the segment's size
	encoders.Put(e)
	return out
}

// DecodeSegment parses a segment produced by EncodeSegment, verifying magic,
// version, checksum and the embedded column schema before reconstructing any
// row. All failures are the package's typed errors.
func DecodeSegment(data []byte) ([]Row, error) {
	d, err := openSegment(data)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, d.nrows)
	if err := d.columns(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// openSegment runs every check that needs no row — magic, version, checksum,
// embedded schema, row-count bound — and returns a decoder at the first column.
func openSegment(data []byte) (*dec, error) {
	if len(data) < len(segMagic)+1 || string(data[:len(segMagic)]) != segMagic {
		return nil, ErrNotStore
	}
	if v := data[len(segMagic)]; v != segVersion {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrVersion, v, segVersion)
	}
	if len(data) < len(segMagic)+1+4 {
		return nil, fmt.Errorf("%w: no room for checksum", ErrTruncated)
	}
	payload := data[len(segMagic)+1 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}

	d := &dec{b: payload}
	cols := Columns()
	ncols := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if ncols != uint64(len(cols)) {
		return nil, fmt.Errorf("%w: segment has %d columns, schema has %d", ErrVersion, ncols, len(cols))
	}
	for _, c := range cols {
		name := d.str()
		kind := d.byte()
		if d.err != nil {
			return nil, d.err
		}
		if name != c.Name || Kind(kind) != c.Kind {
			return nil, fmt.Errorf("%w: segment column %q (kind %d), schema expects %q (%s)",
				ErrVersion, name, kind, c.Name, c.Kind)
		}
	}
	nrows := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	// Bounded allocation: every row contributes at least one byte per column
	// to the payload, so more rows than remaining bytes / columns is
	// structurally impossible — refuse before allocating.
	if remain := uint64(len(d.b) - d.off); nrows > remain/ncols {
		return nil, fmt.Errorf("%w: %d rows of %d columns promised, %d payload bytes remain", ErrCorrupt, nrows, ncols, remain)
	}
	d.nrows = int(nrows)
	return d, nil
}

// columns decodes every column into rows, d.nrows of them, and requires the
// payload to end there.
func (d *dec) columns(rows []Row) error {
	for _, c := range Columns() {
		switch c.Kind {
		case KindString:
			dict := d.dict(uint64(len(rows)))
			for i := range rows {
				idx := d.u64()
				if d.err != nil {
					return d.err
				}
				if idx >= uint64(len(dict)) {
					return fmt.Errorf("%w: column %q: dictionary index %d of %d", ErrCorrupt, c.Name, idx, len(dict))
				}
				*c.atStr(&rows[i]) = dict[idx]
			}
		case KindInt:
			for i := range rows {
				c.setInt(&rows[i], d.i64())
			}
		case KindUint:
			for i := range rows {
				*c.atUint(&rows[i]) = d.u64()
			}
		case KindFloat:
			for i := range rows {
				*c.atFloat(&rows[i]) = math.Float64frombits(d.fix64())
			}
		}
		if d.err != nil {
			return d.err
		}
	}
	if len(d.b) != d.off {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}

// --- encoder ---

type enc struct {
	b []byte
	// String columns buffer their per-row dictionary references until the
	// column's value set is known, then flush dictionary-first.
	dictIdx map[string]uint64
	dictVal []string
	refs    []uint64
}

func (e *enc) u64(v uint64)   { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)    { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) fix64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string)   { e.u64(uint64(len(s))); e.b = append(e.b, s...) }

// dictRef records one string cell against the current column's dictionary.
func (e *enc) dictRef(s string) {
	idx, ok := e.dictIdx[s]
	if !ok {
		idx = uint64(len(e.dictVal))
		e.dictIdx[s] = idx
		e.dictVal = append(e.dictVal, s)
	}
	e.refs = append(e.refs, idx)
}

// flushDict writes the current column's dictionary then its per-row
// references, and resets for the next column. Dictionary order is first
// appearance in row order — deterministic for a given row set.
func (e *enc) flushDict() {
	e.u64(uint64(len(e.dictVal)))
	for _, s := range e.dictVal {
		e.str(s)
	}
	for _, r := range e.refs {
		e.u64(r)
	}
	clear(e.dictIdx)
	clear(e.dictVal) // the pool must not pin the caller's strings
	e.dictVal, e.refs = e.dictVal[:0], e.refs[:0]
}

// --- decoder ---

type dec struct {
	b     []byte
	off   int
	err   error
	nrows int // set by openSegment: how many rows columns must be handed
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail(fmt.Errorf("%w: byte at offset %d", ErrTruncated, d.off))
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: uvarint at offset %d", ErrTruncated, d.off))
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: varint at offset %d", ErrTruncated, d.off))
		return 0
	}
	d.off += n
	return v
}

func (d *dec) fix64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail(fmt.Errorf("%w: fixed64 at offset %d", ErrTruncated, d.off))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(fmt.Errorf("%w: string of %d bytes, %d remain", ErrTruncated, n, len(d.b)-d.off))
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// dict reads one string column's dictionary, bounding its size by both the
// row count (a dictionary never holds more distinct values than rows) and
// the remaining payload.
func (d *dec) dict(nrows uint64) []string {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > nrows || n > uint64(len(d.b)-d.off)+1 {
		d.fail(fmt.Errorf("%w: dictionary of %d entries for %d rows", ErrCorrupt, n, nrows))
		return nil
	}
	dict := make([]string, n)
	for i := range dict {
		dict[i] = d.str()
		if d.err != nil {
			return nil
		}
	}
	return dict
}
