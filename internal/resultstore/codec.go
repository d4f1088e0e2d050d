package resultstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"eagletree/internal/binfmt"
)

// A segment is a sealed binfmt record (DESIGN.md, "Binary formats") whose
// payload is columnar: the embedded schema (column names and kinds, so
// drift between writer and reader is a typed refusal, never silent
// misalignment), the row count, then one column at a time — string columns
// as a dictionary plus per-row indices, integer columns as varints, float
// columns as bit-exact fixed64 words.
var segFormat = binfmt.Format{Magic: "EGTRES", Version: 1,
	ErrMagic: ErrNotStore, ErrVersion: ErrVersion, ErrTruncated: ErrTruncated, ErrCorrupt: ErrCorrupt}

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
	e.b = segFormat.Begin(e.b[:0])
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
	e.b = segFormat.Seal(e.b)
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
	r, err := segFormat.Open(data)
	if err != nil {
		return nil, err
	}
	d := &dec{Reader: r}
	cols := Columns()
	ncols := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if ncols != uint64(len(cols)) {
		return nil, fmt.Errorf("%w: segment has %d columns, schema has %d", ErrVersion, ncols, len(cols))
	}
	for _, c := range cols {
		name := d.Str()
		kind := d.Byte()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if name != c.Name || Kind(kind) != c.Kind {
			return nil, fmt.Errorf("%w: segment column %q (kind %d), schema expects %q (%s)",
				ErrVersion, name, kind, c.Name, c.Kind)
		}
	}
	nrows := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Bounded allocation: every row contributes at least one byte per column
	// to the payload, so more rows than remaining bytes / columns is
	// structurally impossible — refuse before allocating.
	if remain := uint64(d.Len()); nrows > remain/ncols {
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
				idx := d.U64()
				if err := d.Err(); err != nil {
					return err
				}
				if idx >= uint64(len(dict)) {
					return fmt.Errorf("%w: column %q: dictionary index %d of %d", ErrCorrupt, c.Name, idx, len(dict))
				}
				*c.atStr(&rows[i]) = dict[idx]
			}
		case KindInt:
			for i := range rows {
				c.setInt(&rows[i], d.I64())
			}
		case KindUint:
			for i := range rows {
				*c.atUint(&rows[i]) = d.U64()
			}
		case KindFloat:
			for i := range rows {
				*c.atFloat(&rows[i]) = math.Float64frombits(d.Fix64())
			}
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
	return d.Done()
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
	binfmt.Reader
	nrows int // set by openSegment: how many rows columns must be handed
}

// dict reads one string column's dictionary, bounding its size by the row
// count: a dictionary never holds more distinct values than rows.
func (d *dec) dict(nrows uint64) []string {
	n := d.Count(1)
	if uint64(n) > nrows {
		d.Corruptf("dictionary of %d entries for %d rows", n, nrows)
	}
	if d.Err() != nil {
		return nil
	}
	dict := make([]string, n)
	for i := range dict {
		dict[i] = d.Str()
	}
	return dict
}
