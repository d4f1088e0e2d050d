package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"eagletree/internal/experiment"
)

// sampleMsgs covers every message type with every field its type uses.
func sampleMsgs() []Msg {
	return []Msg{
		{Type: MsgHello, Version: ProtoVersion, Spec: []byte(`{"version":1}`), SeriesBucket: 20_000_000},
		{Type: MsgReady, Version: ProtoVersion, Count: 9, Sum: "ab12"},
		{Type: MsgLease, Index: 0, Key: "spec1|{}"},
		{Type: MsgLease, Index: 3, Key: "spec1|{\"geometry\":{}}"},
		{Type: MsgEvent, Kind: experiment.EventVariantQueued, Index: 0, Variant: "ch=1", Variants: 8},
		{Type: MsgEvent, Kind: experiment.EventPrepareMiss, Index: 2, Variant: "ch=4", Variants: 8, Key: "spec1|{}", Wall: 1_234_567},
		{Type: MsgResult, Index: 2, Key: "spec1|{}", Wall: 77, Row: &experiment.Row{Label: "ch=4", X: 4, Timeline: "▁▂▃"}},
		{Type: MsgFailed, Index: 5, Variant: "ch=32", Error: "boom", Panic: true, Wall: 3},
		{Type: MsgFetch, Key: "spec1|{}"},
		{Type: MsgState, Key: "spec1|{}", Data: []byte{1, 2, 3, 0xff}},
		{Type: MsgState, Key: "spec1|{}", Miss: true},
		{Type: MsgPut, Key: "spec1|{}", Data: []byte("EGTSNAP...")},
		{Type: MsgShutdown, Error: "sweep complete"},
	}
}

// TestCodecRoundTrip sends every sample message through a pipe buffer and
// requires the decoded value to match field for field — including the zero
// event kind and index zero, the classic omitempty casualties.
func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf, &buf)
	for _, m := range sampleMsgs() {
		if err := c.Send(m); err != nil {
			t.Fatalf("send %s: %v", m.Type, err)
		}
	}
	for _, want := range sampleMsgs() {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Type, err)
		}
		// Spec survives as semantically equal JSON; compare it separately.
		if string(got.Spec) != string(want.Spec) {
			t.Fatalf("%s: spec %s, want %s", want.Type, got.Spec, want.Spec)
		}
		got.Spec, want.Spec = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\ngot  %#v\nwant %#v", want.Type, got, want)
		}
	}
	if _, err := c.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("after drain: %v, want io.EOF", err)
	}
}

var updateGoldenWire = flag.Bool("update-golden-wire", false, "rewrite testdata/golden-v2.wire")

const goldenWire = "testdata/golden-v2.wire"

// TestCodecFrameGolden pins the wire byte for byte: sampleMsgs encodes to the
// committed golden stream, and the golden stream decodes back to sampleMsgs.
// A change to either side of that equality is a protocol change and bumps
// ProtoVersion.
func TestCodecFrameGolden(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(nil, &buf)
	for _, m := range sampleMsgs() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if *updateGoldenWire {
		if err := os.WriteFile(goldenWire, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenWire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("sampleMsgs encode to %d bytes that differ from the %d-byte %s", buf.Len(), len(golden), goldenWire)
	}
	d := NewCodec(bytes.NewReader(golden), nil)
	for _, want := range sampleMsgs() {
		got, err := d.Recv()
		if err != nil {
			t.Fatalf("decode %s: %v", want.Type, err)
		}
		if string(got.Spec) != string(want.Spec) {
			t.Fatalf("%s: spec %s, want %s", want.Type, got.Spec, want.Spec)
		}
		got.Spec, want.Spec = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s from the golden stream:\ngot  %#v\nwant %#v", want.Type, got, want)
		}
	}
	if _, err := d.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the golden stream: %v, want io.EOF", err)
	}
}

// payload is a frame payload: a JSON header and state bytes, each
// length-prefixed.
func payload(hdr string, data []byte) []byte {
	b := append(binary.AppendUvarint(nil, uint64(len(hdr))), hdr...)
	return append(binary.AppendUvarint(b, uint64(len(data))), data...)
}

// frame seals a payload as a wire frame of the given version.
func frame(version byte, p []byte) []byte {
	f := wireFormat
	f.Version = version
	return f.Seal(append(binary.AppendUvarint(f.Begin(nil), uint64(len(p))), p...))
}

// TestRecvDataOutlivesLaterRecv: state bytes a message carries stay intact
// while the codec goes on receiving — a worker's cache keeps them.
func TestRecvDataOutlivesLaterRecv(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf, &buf)
	state := bytes.Repeat([]byte{0xa5}, 3*keepFrame)
	small := []byte{1, 2, 3}
	for _, m := range []Msg{{Type: MsgState, Key: "k", Data: state}, {Type: MsgPut, Key: "k", Data: small}, {Type: MsgLease, Index: 1}, {Type: MsgState, Key: "k", Data: []byte{9, 9, 9}}, {Type: MsgLease, Index: 2}} {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	var kept [][]byte
	for range 5 {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Data != nil {
			kept = append(kept, m.Data)
		}
	}
	if len(kept) != 3 || !bytes.Equal(kept[0], state) || !bytes.Equal(kept[1], small) || !bytes.Equal(kept[2], []byte{9, 9, 9}) {
		t.Fatalf("state bytes changed under later receives")
	}
}

// TestRecvTypedErrors maps the codec's failure modes onto its typed errors.
func TestRecvTypedErrors(t *testing.T) {
	lease := frame(ProtoVersion, payload(`{"type":"lease","index":3,"key":"k"}`, nil))
	state := frame(ProtoVersion, payload(`{"type":"state","key":"k"}`, []byte{1, 2, 3, 4}))
	flipped := bytes.Clone(lease)
	flipped[len(flipped)-2] ^= 0x40
	hdrLen := len(wireFormat.Magic) + 1
	cases := []struct {
		name  string
		input []byte
		want  error
	}{
		{"clean EOF", nil, io.EOF},
		{"bad magic", append([]byte("EGTWIRX"), lease[hdrLen-1:]...), ErrMalformed},
		{"not a frame", []byte("EGTSNAP\x03\x02"), ErrMalformed},
		{"flipped CRC byte", flipped, ErrMalformed},
		{"trailing payload bytes", frame(ProtoVersion, append(payload(`{"type":"lease"}`, nil), 0)), ErrMalformed},
		{"header length past the payload", frame(ProtoVersion, append(binary.AppendUvarint(nil, 40), `{"type":"lease"}`...)), ErrTruncated},
		{"truncated in the header", lease[:4], ErrTruncated},
		{"truncated in the length", append(wireFormat.Begin(nil), 0x80), ErrTruncated},
		{"truncated in the JSON header", lease[:hdrLen+8], ErrTruncated},
		{"truncated in the data", state[:len(state)-6], ErrTruncated},
		{"truncated in the CRC", state[:len(state)-2], ErrTruncated},
		{"overlong length", append(wireFormat.Begin(nil), bytes.Repeat([]byte{0xff}, 11)...), ErrMalformed},
		{"header not JSON", frame(ProtoVersion, payload("EGTSNAP", nil)), ErrMalformed},
		{"wrong JSON shape", frame(ProtoVersion, payload(`{"type":["lease"]}`, nil)), ErrMalformed},
		{"truncated JSON object", frame(ProtoVersion, payload(`{"type":"lease","index"`, nil)), ErrMalformed},
	}
	for _, tc := range cases {
		c := NewCodec(bytes.NewReader(tc.input), nil)
		_, err := c.Recv()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	for _, tc := range []struct {
		name, mention string
		input         []byte
	}{
		{"unknown type", `"gossip"`, frame(ProtoVersion, payload(`{"type":"gossip"}`, nil))},
		{"version 1 frame", "got 1", frame(1, payload(`{"type":"lease"}`, nil))},
		{"version 3 frame", "got 3", frame(3, payload(`{"type":"lease"}`, nil))},
		{"version 1 NDJSON line", "protocol 1", []byte(`{"type":"ready","version":1,"count":9,"sum":"ab12"}` + "\n")},
	} {
		_, err := NewCodec(bytes.NewReader(tc.input), nil).Recv()
		var pe *ProtocolError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("%s: got %v, want a *ProtocolError mentioning %s", tc.name, err, tc.mention)
		}
	}
}

// TestRecvRefusesNDJSONPeer: a version 1 peer's ready line is shorter than
// the 123 bytes its leading '{' would promise as a length, and the peer then
// waits for a reply. Recv must refuse it from the bytes it has, naming the
// version, rather than wait on the open pipe for the rest of a frame.
func TestRecvRefusesNDJSONPeer(t *testing.T) {
	coordSide, workerSide := net.Pipe()
	defer coordSide.Close()
	defer workerSide.Close()
	go workerSide.Write([]byte(`{"type":"ready","version":1,"count":9,"sum":"ab12"}` + "\n"))
	got := make(chan error, 1)
	go func() {
		_, err := NewCodec(coordSide, coordSide).Recv()
		got <- err
	}()
	select {
	case err := <-got:
		var pe *ProtocolError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "protocol 1") {
			t.Fatalf("got %v, want a *ProtocolError naming protocol 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv is still waiting on a version 1 peer")
	}
}

// TestRecvBoundsFrameLength: a frame's claimed length never sizes an
// allocation. Headers promising 2^30 and 2^62 bytes, followed by little or
// nothing, fail as truncation with well under a megabyte allocated.
func TestRecvBoundsFrameLength(t *testing.T) {
	for _, tc := range []struct {
		claim uint64
		rest  int
	}{{1 << 30, 0}, {1 << 30, 100 << 10}, {1 << 62, 16}, {1<<63 - 1, 0}} {
		input := append(binary.AppendUvarint(wireFormat.Begin(nil), tc.claim), make([]byte, tc.rest)...)
		var err error
		var before, after runtime.MemStats
		const runs = 8
		runtime.ReadMemStats(&before)
		for range runs {
			_, err = NewCodec(bytes.NewReader(input), nil).Recv()
		}
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) {
			t.Errorf("claim %d with %d bytes: got %v, want ErrTruncated or ErrMalformed", tc.claim, tc.rest, err)
		}
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<20 {
			t.Errorf("claim %d with %d bytes: %d bytes allocated a Recv, want < 1 MB", tc.claim, tc.rest, per)
		}
	}
}

// TestCodecLeaseAllocs guards the lease round trip, the message a sweep
// sends most: a Send and a Recv together make at most 7 allocations.
func TestCodecLeaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	keys, err := suiteDoc(t, "E2").VariantKeys()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c := NewCodec(&buf, &buf)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(Msg{Type: MsgLease, Index: i, Key: keys[i%len(keys)]}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 7 {
		t.Fatalf("lease Send+Recv: %.1f allocations, want at most 7", allocs)
	}
}

// FuzzRecv pins the codec's robustness contract, mirroring the snapshot
// codec's FuzzDecode: arbitrary input yields a message or one of the typed
// errors — never a panic, never an untyped failure. The NDJSON seeds are the
// version 1 wire, which this end refuses with a typed error.
func FuzzRecv(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"type":"lease","index":3,"key":"spec1|{}"}`))
	f.Add([]byte(`{"type":"state","data":"AQID"}{"type":"shutdown"}`))
	f.Add([]byte(`{"type":"lease"`))
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte(`{"type":"event","kind":"prepare-hit","index":1}`))
	f.Add([]byte(`{"type":"event","kind":"sideways"}`))
	var buf bytes.Buffer
	enc := NewCodec(nil, &buf)
	for _, m := range sampleMsgs() {
		if err := enc.Send(m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	state := frame(ProtoVersion, payload(`{"type":"state","key":"k"}`, []byte{1, 2, 3}))
	f.Add(state)
	f.Add(state[:len(state)-3])
	f.Add(frame(1, payload(`{"type":"lease"}`, nil)))
	f.Add(frame(ProtoVersion, payload(`{"type":"event","kind":"sideways"}`, nil)))
	f.Add(frame(ProtoVersion, payload(`{"type":"gossip"}`, nil)))
	f.Add(append(binary.AppendUvarint(wireFormat.Begin(nil), 1<<30), 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCodec(bytes.NewReader(data), nil)
		for i := 0; i < 64; i++ { // bounded: corrupt input must not loop forever
			_, err := c.Recv()
			if err == nil {
				continue
			}
			var pe *ProtocolError
			switch {
			case errors.Is(err, io.EOF),
				errors.Is(err, ErrTruncated),
				errors.Is(err, ErrMalformed),
				errors.As(err, &pe):
				return
			default:
				t.Fatalf("untyped error %T from Recv: %v", err, err)
			}
		}
	})
}

// TestKeyDigestPositional: permuting the key list must change the digest —
// leases are positional, so a digest that ignored order would let two
// processes agree while disagreeing about which variant is which.
func TestKeyDigestPositional(t *testing.T) {
	a := KeyDigest([]string{"k1", "k2"})
	b := KeyDigest([]string{"k2", "k1"})
	if a == b {
		t.Fatal("digest ignores key order")
	}
	if KeyDigest([]string{"ab", "c"}) == KeyDigest([]string{"a", "bc"}) {
		t.Fatal("digest ignores key boundaries")
	}
	if a != KeyDigest([]string{"k1", "k2"}) {
		t.Fatal("digest is not deterministic")
	}
}
