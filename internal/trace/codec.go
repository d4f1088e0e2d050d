package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"eagletree/internal/binfmt"
	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// ErrFormat wraps every malformed-input failure in the text and binary
// trace decoders — bad bytes, truncation, an over-long line, a record the
// trace rules refuse — distinguishing them from the reader's I/O errors.
var ErrFormat = errors.New("trace: malformed trace")

// textHeader is the first line of the versioned text form.
const textHeader = "eagletree-trace v1"

// binaryFormat frames the binary form (DESIGN.md, "Binary formats"): a
// binfmt header without a checksum, every failure ErrFormat.
var binaryFormat = binfmt.Format{Magic: "ETRC", Version: 1,
	ErrMagic: ErrFormat, ErrVersion: ErrFormat, ErrTruncated: ErrFormat, ErrCorrupt: ErrFormat}

// minRecordBytes is the smallest binary record: six one-byte varints, the op
// and the temperature.
const minRecordBytes = 8

// opLetter maps request types to their single-letter text encoding.
func opLetter(t iface.ReqType) byte {
	switch t {
	case iface.Read:
		return 'R'
	case iface.Write:
		return 'W'
	default:
		return 'T'
	}
}

// opFromLetter is the inverse of opLetter.
func opFromLetter(b byte) (iface.ReqType, bool) {
	switch b {
	case 'R':
		return iface.Read, true
	case 'W':
		return iface.Write, true
	case 'T':
		return iface.Trim, true
	default:
		return 0, false
	}
}

// EncodeText writes the trace in the versioned text form: a header line, a
// column comment, then one record per line as
// "at_ns thread op lpn size prio locality temp".
func EncodeText(w io.Writer, t *Trace) error {
	if err := t.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, textHeader)
	fmt.Fprintln(bw, "# at_ns thread op lpn size prio locality temp")
	for _, r := range t.Records {
		fmt.Fprintf(bw, "%d %d %c %d %d %d %d %d\n",
			int64(r.At), r.Thread, opLetter(r.Op), int64(r.LPN), r.Size,
			int(r.Tags.Priority), r.Tags.Locality, int(r.Tags.Temperature))
	}
	return bw.Flush()
}

// DecodeText parses the versioned text form. Blank lines and # comments are
// skipped; any malformed line is an error naming its line number.
func DecodeText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	sawHeader := false
	t := &Trace{}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if !sawHeader {
			if text != textHeader {
				return nil, fmt.Errorf("%w: line %d: bad header %q, want %q", ErrFormat, line, text, textHeader)
			}
			sawHeader = true
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 8 {
			return nil, fmt.Errorf("%w: line %d: %d fields, want 8", ErrFormat, line, len(fields))
		}
		ints := make([]int64, 8)
		for i, f := range fields {
			if i == 2 {
				continue // op letter
			}
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: field %d: %v", ErrFormat, line, i+1, err)
			}
			ints[i] = v
		}
		if len(fields[2]) != 1 {
			return nil, fmt.Errorf("%w: line %d: bad op %q", ErrFormat, line, fields[2])
		}
		op, ok := opFromLetter(fields[2][0])
		if !ok {
			return nil, fmt.Errorf("%w: line %d: bad op %q", ErrFormat, line, fields[2])
		}
		t.Records = append(t.Records, Record{
			At:     sim.Time(ints[0]),
			Thread: int(ints[1]),
			Op:     op,
			LPN:    iface.LPN(ints[3]),
			Size:   int(ints[4]),
			Tags: iface.Tags{
				Priority:    iface.Priority(ints[5]),
				Locality:    int(ints[6]),
				Temperature: iface.Temperature(ints[7]),
			},
		})
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line+1, err)
	} else if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("%w: missing %q header", ErrFormat, textHeader)
	}
	return decoded(t)
}

// decoded applies the trace rules to a decoded trace: a record the encoders
// would refuse is malformed input.
func decoded(t *Trace) (*Trace, error) {
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return t, nil
}

// EncodeBinary writes the compact binary form: magic, version, record count,
// then per record delta-encoded varints (timestamp deltas are monotone, LPN
// deltas signed), the op and temperature as single bytes.
func EncodeBinary(w io.Writer, t *Trace) error {
	if err := t.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryFormat.Magic)
	bw.WriteByte(binaryFormat.Version)
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { bw.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	putVarint := func(v int64) { bw.Write(buf[:binary.PutVarint(buf[:], v)]) }
	putUvarint(uint64(len(t.Records)))
	var prevAt sim.Time
	var prevLPN iface.LPN
	for _, r := range t.Records {
		putUvarint(uint64(r.At - prevAt))
		prevAt = r.At
		putUvarint(uint64(r.Thread))
		bw.WriteByte(opLetter(r.Op))
		putVarint(int64(r.LPN - prevLPN))
		prevLPN = r.LPN
		putUvarint(uint64(r.Size))
		putVarint(int64(r.Tags.Priority))
		putVarint(int64(r.Tags.Locality))
		bw.WriteByte(byte(r.Tags.Temperature))
	}
	return bw.Flush()
}

// DecodeBinary parses the compact binary form. The record count is bounded
// by the input's length, so a corrupt count cannot drive the allocation.
func DecodeBinary(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	d, err := binaryFormat.Header(data)
	if err != nil {
		return nil, err
	}
	t := &Trace{Records: make([]Record, d.Count(minRecordBytes))}
	var at sim.Time
	var lpn iface.LPN
	for i := range t.Records {
		rec := &t.Records[i]
		at += sim.Time(d.U64())
		rec.At = at
		rec.Thread = int(d.U64())
		opb := d.Byte()
		lpn += iface.LPN(d.I64())
		rec.LPN = lpn
		rec.Size = int(d.U64())
		rec.Tags.Priority = iface.Priority(d.I64())
		rec.Tags.Locality = int(d.I64())
		rec.Tags.Temperature = iface.Temperature(d.Byte())
		var ok bool
		if rec.Op, ok = opFromLetter(opb); !ok {
			d.Corruptf("record %d: bad op byte %q", i, opb)
		}
		if d.Err() != nil {
			break
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return decoded(t)
}

// Decode sniffs the format (binary magic vs text header) and parses either.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryFormat.Magic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if string(head) == binaryFormat.Magic {
		return DecodeBinary(br)
	}
	return DecodeText(br)
}

// WriteFile encodes the trace to path: binary when the name ends in .etb,
// the text form otherwise.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := EncodeText
	if strings.HasSuffix(path, ".etb") {
		enc = EncodeBinary
	}
	if err := enc(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes a trace from path, sniffing the format.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
