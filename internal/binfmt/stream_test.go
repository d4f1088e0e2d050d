package binfmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// writeFrames writes each payload, split into head and tail at its middle,
// as one stream frame.
func writeFrames(t testing.TB, payloads ...[]byte) []byte {
	var out bytes.Buffer
	var buf []byte
	for _, p := range payloads {
		var err error
		if buf, err = testFormat.WriteFrame(&out, buf, p[:len(p)/2], p[len(p)/2:]); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestFrameRoundTrip: frames written with WriteFrame, small and past the
// copy threshold, read back with ReadFrame into a reused buffer, and each
// frame is exactly a sealed record of its length and payload.
func TestFrameRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{0x5a, 0x00, 0xff}, frameChunk)
	payloads := [][]byte{fields(), {}, big, fields()}
	stream := writeFrames(t, payloads...)
	want := sealed(append(binary.AppendUvarint(nil, uint64(len(payloads[0]))), payloads[0]...))
	if !bytes.HasPrefix(stream, want) {
		t.Fatalf("first frame % x, want % x", stream[:len(want)], want)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, p := range payloads {
		r, b, err := testFormat.ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = b
		if r.Len() != len(p) {
			t.Fatalf("frame %d: %d payload bytes, want %d", i, r.Len(), len(p))
		}
		if i == 0 || i == 3 {
			if got := readFields(&r); !reflect.DeepEqual(got, []any{uint64(300), int64(-5), uint64(1<<63 | 7), byte('x'), true, "abc", []byte{9, 8}, []int32{-1, 70000}}) {
				t.Fatalf("frame %d: read %v", i, got)
			}
		} else if got := r.b[r.off:]; !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload differs", i)
		}
	}
	if _, _, err := testFormat.ReadFrame(br, buf); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	frame := writeFrames(t, fields())
	flipped := bytes.Clone(frame)
	flipped[len(flipped)-1] ^= 1
	begin := testFormat.Begin(nil)
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"cut in the magic", []byte("TE"), errTruncated},
		{"bad magic", []byte("TEXT\x02\x01\x00"), errMagic},
		{"bad version", []byte("TEST\x03\x01\x00"), errVersion},
		{"cut in the length", append(begin, 0x80), errTruncated},
		{"overlong length", append(begin, bytes.Repeat([]byte{0xff}, 11)...), errCorrupt},
		{"length past 64 bits", append(append(begin, bytes.Repeat([]byte{0xff}, 9)...), 0x7f), errCorrupt},
		{"cut in the payload", frame[:len(frame)-8], errTruncated},
		{"cut in the checksum", frame[:len(frame)-1], errTruncated},
		{"flipped checksum", flipped, errCorrupt},
		{"length past any int", binary.AppendUvarint(bytes.Clone(begin), 1<<64-1), errCorrupt},
	} {
		_, _, err := testFormat.ReadFrame(bufio.NewReader(bytes.NewReader(tc.in)), nil)
		if tc.want == io.EOF && err != io.EOF || tc.want != io.EOF && typed(err) != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// failingReader returns its bytes, then a transport error.
type failingReader struct{ b []byte }

var errTransport = errors.New("transport down")

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, errTransport
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

// TestReadFrameTransportError: a stream failing inside a frame is
// truncation that still names the transport's error.
func TestReadFrameTransportError(t *testing.T) {
	frame := writeFrames(t, fields())
	for _, cut := range []int{3, 5, 9, len(frame) - 2} { // header, length, payload, checksum
		_, _, err := testFormat.ReadFrame(bufio.NewReader(&failingReader{frame[:cut]}), nil)
		if !errors.Is(err, errTruncated) || !errors.Is(err, errTransport) {
			t.Errorf("cut at %d: got %v, want truncation wrapping the transport error", cut, err)
		}
	}
}

// TestReadFrameBoundsClaimedLength: a frame claiming far more bytes than
// arrive allocates in proportion to what arrived.
func TestReadFrameBoundsClaimedLength(t *testing.T) {
	for _, rest := range []int{0, 3 * frameChunk} {
		in := append(binary.AppendUvarint(testFormat.Begin(nil), 1<<28), make([]byte, rest)...)
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			testFormat.ReadFrame(bufio.NewReader(bytes.NewReader(in)), nil)
		}
		runtime.ReadMemStats(&after)
		allocs := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(2*rest + 2*frameChunk + 8<<10); allocs > limit {
			t.Errorf("%d bytes after a 2^28 claim: %d bytes allocated, want at most %d", rest, allocs, limit)
		}
	}
}

// FuzzReadFrame: arbitrary streams yield frames, io.EOF or one of the
// format's sentinels, and never a payload the stream did not hold.
func FuzzReadFrame(f *testing.F) {
	f.Add(writeFrames(f, fields(), []byte{1, 2, 3}))
	f.Add(writeFrames(f, fields())[:12])
	f.Add(binary.AppendUvarint(testFormat.Begin(nil), 1<<30))
	f.Add([]byte("TEST\x01"))
	f.Add([]byte("{\"type\":\"ready\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			r, b, err := testFormat.ReadFrame(br, buf)
			if err == io.EOF {
				return
			}
			if err != nil {
				if typed(err) == nil {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if r.Len() > len(data) {
				t.Fatalf("%d-byte payload from a %d-byte stream", r.Len(), len(data))
			}
			buf = b
		}
	})
}
