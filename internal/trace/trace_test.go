package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

func sampleTrace() *Trace {
	return &Trace{Records: []Record{
		{At: 0, Thread: 2, Op: iface.Write, LPN: 100, Size: 1},
		{At: 1500, Thread: 2, Op: iface.Read, LPN: 99, Size: 1,
			Tags: iface.Tags{Priority: iface.PriorityHigh}},
		{At: 1500, Thread: 3, Op: iface.Trim, LPN: 4096, Size: 8,
			Tags: iface.Tags{Priority: iface.PriorityLow, Locality: 7, Temperature: iface.TempHot}},
		{At: 90_000, Thread: 0, Op: iface.Write, LPN: 0, Size: 2,
			Tags: iface.Tags{Temperature: iface.TempCold}},
	}}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("text round trip:\nin:  %+v\nout: %+v", tr, got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("binary round trip:\nin:  %+v\nout: %+v", tr, got)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 1000; i++ {
		tr.Records = append(tr.Records, Record{
			At: sim.Time(i * 1000), Thread: 1, Op: iface.Write,
			LPN: iface.LPN(i * 17 % 4096), Size: 1,
		})
	}
	var text, bin bytes.Buffer
	if err := EncodeText(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= text.Len() {
		t.Fatalf("binary (%d bytes) not smaller than text (%d bytes)", bin.Len(), text.Len())
	}
}

func TestDecodeSniffsFormat(t *testing.T) {
	tr := sampleTrace()
	for _, enc := range []func(*bytes.Buffer){
		func(b *bytes.Buffer) { EncodeText(b, tr) },
		func(b *bytes.Buffer) { EncodeBinary(b, tr) },
	} {
		var buf bytes.Buffer
		enc(&buf)
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("sniffed decode mismatch: %+v", got)
		}
	}
}

func TestDecodeTextErrors(t *testing.T) {
	cases := map[string]string{
		"missing header":     "0 1 W 2 1 0 0 0\n",
		"wrong header":       "eagletree-trace v99\n",
		"short line":         "eagletree-trace v1\n0 1 W 2\n",
		"bad op":             "eagletree-trace v1\n0 1 X 2 1 0 0 0\n",
		"long op":            "eagletree-trace v1\n0 1 WW 2 1 0 0 0\n",
		"erase op":           "eagletree-trace v1\n0 1 E 2 1 0 0 0\n",
		"bad number":         "eagletree-trace v1\n0 1 W two 1 0 0 0\n",
		"zero size":          "eagletree-trace v1\n0 1 W 2 0 0 0 0\n",
		"negative timestamp": "eagletree-trace v1\n-5 1 W 2 1 0 0 0\n",
		"time regression":    "eagletree-trace v1\n100 1 W 2 1 0 0 0\n50 1 W 2 1 0 0 0\n",
		"over-long line":     "eagletree-trace v1\n0 1 W 2 1 0 0 0" + strings.Repeat(" ", 1<<20) + "\n",
		"empty input":        "",
	}
	for name, in := range cases {
		if _, err := DecodeText(strings.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", name, err)
		}
	}
}

// binaryTrace encodes tr in the binary form.
func binaryTrace(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileCount is a bare header promising 2^30 records: 64 GiB of Records
// if the count drove the allocation.
var hostileCount = []byte("ETRC\x01\x80\x80\x80\x80\x04")

func TestDecodeBinaryErrors(t *testing.T) {
	full := binaryTrace(t, sampleTrace())
	header := len("ETRC") + 1
	// A record the encoder would refuse: one-byte at, thread, op and LPN,
	// then the size set to 0.
	zero := binaryTrace(t, &Trace{Records: []Record{{Op: iface.Write, Size: 1}}})
	zero[header+1+4] = 0
	one := binaryTrace(t, &Trace{Records: []Record{{Op: iface.Read, LPN: 1 << 20, Size: 1}}})
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE\x01"),
		"bad version": append(append([]byte{}, "ETRC"...),
			99),
		"truncated header": full[:3],
		"truncated count":  hostileCount[:header+2],
		"hostile count":    hostileCount,
		"truncated record": one[:len(one)-1],
		"truncated body":   full[:len(full)-2],
		"trailing bytes":   append(append([]byte{}, full...), 0),
		"zero size":        zero,
	}
	// A corrupted op byte inside the stream must surface as an error, not a
	// bogus record. The op of record 0 sits right after magic+version+count+
	// deltaAt+thread; find it by searching for the first 'W'.
	corrupt := append([]byte{}, full...)
	corrupt[bytes.IndexByte(corrupt, 'W')] = 'Z'
	cases["bad op byte"] = corrupt
	// Timestamps are unsigned deltas: an At past MaxInt64 wraps negative.
	negative := binaryTrace(t, &Trace{Records: []Record{{At: 1, Op: iface.Read, Size: 1}}})
	cases["negative timestamp"] = append(negative[:header+1], append(binary.AppendUvarint(nil, 1<<63), negative[header+2:]...)...)
	// Two records whose second delta wraps the clock backwards.
	regress := binaryTrace(t, &Trace{Records: []Record{{At: 10, Op: iface.Read, Size: 1}, {At: 11, Op: iface.Read, Size: 1}}})
	at := header + 1 + minRecordBytes // second record's timestamp delta
	cases["time regression"] = append(append(regress[:at:at], binary.AppendUvarint(nil, math.MaxUint64-4)...), regress[at+1:]...)

	for name, in := range cases {
		if _, err := DecodeBinary(bytes.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", name, err)
		}
	}
}

// TestDecodeBinaryBoundsCount: a header promising 2^30 records is refused
// before anything is allocated for them.
func TestDecodeBinaryBoundsCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinary(bytes.NewReader(hostileCount))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("DecodeBinary allocated %d bytes for a %d-byte input", got, len(hostileCount))
	}
}

// FuzzDecodeTrace feeds arbitrary bytes to the sniffing Decode. The
// contract: no panic, every error is ErrFormat (the input is in memory, so
// there are no I/O errors), and an accepted trace re-encodes to a trace that
// decodes to itself.
func FuzzDecodeTrace(f *testing.F) {
	bin := binaryTrace(f, sampleTrace())
	var text bytes.Buffer
	if err := EncodeText(&text, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Add(text.Bytes())
	f.Add(hostileCount)
	for _, cut := range []int{3, 7, len(bin) - 2} {
		f.Add(bin[:cut])
	}
	flipped := append([]byte{}, bin...)
	flipped[bytes.IndexByte(flipped, 'W')] = 'Z'
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Decode returned an untyped error: %v", err)
			}
			return
		}
		again, err := DecodeBinary(bytes.NewReader(binaryTrace(t, tr)))
		if err != nil || !slices.Equal(again.Records, tr.Records) {
			t.Fatalf("accepted trace does not round-trip: %v", err)
		}
	})
}

func TestEncodeRejectsInvalid(t *testing.T) {
	bad := []*Trace{
		{Records: []Record{{At: 0, Op: iface.Erase, Size: 1}}},
		{Records: []Record{{At: 0, Op: iface.Read, Size: 0}}},
		{Records: []Record{{At: -1, Op: iface.Read, Size: 1}}},
		{Records: []Record{
			{At: 10, Op: iface.Read, Size: 1},
			{At: 5, Op: iface.Read, Size: 1},
		}},
	}
	for i, tr := range bad {
		var buf bytes.Buffer
		if err := EncodeText(&buf, tr); err == nil {
			t.Errorf("case %d: text encode accepted invalid trace", i)
		}
		if err := EncodeBinary(&buf, tr); err == nil {
			t.Errorf("case %d: binary encode accepted invalid trace", i)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	tr := sampleTrace()
	dir := t.TempDir()
	for _, name := range []string{"t.trace", "t.etb"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("%s: file round trip mismatch", name)
		}
	}
}

func TestCaptureGating(t *testing.T) {
	c := NewCapture()
	req := &iface.Request{Type: iface.Write, LPN: 5, Thread: 1}
	c.Submitted(100, req)
	c.Stop()
	c.Submitted(200, req) // ignored
	c.Start(1000)
	c.Submitted(1400, req)
	c.Submitted(900, req) // before the new origin: clamped, kept monotone

	tr := c.Trace()
	if tr.Len() != 3 {
		t.Fatalf("captured %d records, want 3", tr.Len())
	}
	if tr.Records[0].At != 100 {
		t.Errorf("pre-gate record at %v, want 100", tr.Records[0].At)
	}
	if tr.Records[1].At != 400 {
		t.Errorf("rebased record at %v, want 400", tr.Records[1].At)
	}
	if tr.Records[2].At != 400 {
		t.Errorf("pre-origin record at %v, want 400 (monotone clamp)", tr.Records[2].At)
	}
	// Whatever Stop/Start windowing produced, a capture must always yield an
	// encodable trace.
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatalf("captured trace not encodable: %v", err)
	}
}

// TestCaptureRebaseStaysMonotone covers the multi-window case where Start's
// origin rebase would otherwise step timestamps backwards below records from
// an earlier window.
func TestCaptureRebaseStaysMonotone(t *testing.T) {
	c := NewCapture()
	req := &iface.Request{Type: iface.Write, LPN: 1}
	c.Submitted(5000, req) // first window, origin 0: At 5000
	c.Stop()
	c.Start(10_000)
	c.Submitted(10_100, req) // would rebase to 100, must clamp to 5000
	c.Submitted(16_000, req) // rebases to 6000, past the clamp again
	tr := c.Trace()
	want := []sim.Time{5000, 5000, 6000}
	for i, r := range tr.Records {
		if r.At != want[i] {
			t.Fatalf("record %d at %v, want %v", i, r.At, want[i])
		}
	}
	var buf bytes.Buffer
	if err := EncodeText(&buf, tr); err != nil {
		t.Fatalf("captured trace not encodable: %v", err)
	}
}

func TestCaptureTraceIsACopy(t *testing.T) {
	c := NewCapture()
	c.Submitted(1, &iface.Request{Type: iface.Read, LPN: 1})
	tr := c.Trace()
	c.Submitted(2, &iface.Request{Type: iface.Read, LPN: 2})
	if tr.Len() != 1 {
		t.Fatal("snapshot grew after later captures")
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := sampleTrace()
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Pages() != 12 {
		t.Fatalf("Pages = %d, want 12", tr.Pages())
	}
	if tr.Duration() != 90_000 {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	if got := tr.Threads(); !reflect.DeepEqual(got, []int{2, 3, 0}) {
		t.Fatalf("Threads = %v", got)
	}
	sub := tr.FilterThread(2)
	if sub.Len() != 2 || sub.Records[1].Op != iface.Read {
		t.Fatalf("FilterThread: %+v", sub.Records)
	}
}
