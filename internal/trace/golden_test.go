package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

var updateGolden = flag.Bool("update-golden-trace", false, "rewrite testdata/golden-v1.{etb,txt} from goldenTrace")

// goldenTrace is the fixed trace the golden files hold: LPN deltas of both
// signs and of one to four varint bytes, multi-page sizes, repeated
// timestamps, and every op, priority and temperature with localities of
// both signs.
func goldenTrace() *Trace {
	prios := []iface.Priority{iface.PriorityLow, iface.PriorityNormal, iface.PriorityHigh}
	temps := []iface.Temperature{iface.TempUnknown, iface.TempCold, iface.TempHot}
	ops := []iface.ReqType{iface.Write, iface.Read, iface.Trim}
	lpns := []iface.LPN{5000, 4990, 0, 1 << 21, 300, 299, 1 << 14, 7, 7, 1<<31 - 1, 12}
	t := &Trace{}
	at := int64(0)
	for i, lpn := range lpns {
		t.Records = append(t.Records, Record{
			At:     sim.Time(at),
			Thread: i % 4,
			Op:     ops[i%3],
			LPN:    lpn,
			Size:   []int{1, 8, 2, 64, 1, 300}[i%6],
			Tags: iface.Tags{
				Priority:    prios[i%3],
				Locality:    []int{0, 3, -2, 1 << 20}[i%4],
				Temperature: temps[(i/3)%3],
			},
		})
		at += []int64{0, 1500, 1, 1 << 40, 90_000}[i%5]
	}
	return t
}

// TestGoldenTrace pins both trace formats: testdata/golden-v1.etb and
// golden-v1.txt were written by the version-1 encoders from goldenTrace
// (rewrite them with -update-golden-trace only when a format version
// changes). Each must decode, through its own decoder and through the
// sniffing Decode, to goldenTrace, and re-encode to the same bytes.
func TestGoldenTrace(t *testing.T) {
	want := goldenTrace()
	for _, tc := range []struct {
		file   string
		encode func(*bytes.Buffer, *Trace) error
		decode func(*bytes.Reader) (*Trace, error)
	}{
		{"golden-v1.etb", func(b *bytes.Buffer, t *Trace) error { return EncodeBinary(b, t) },
			func(r *bytes.Reader) (*Trace, error) { return DecodeBinary(r) }},
		{"golden-v1.txt", func(b *bytes.Buffer, t *Trace) error { return EncodeText(b, t) },
			func(r *bytes.Reader) (*Trace, error) { return DecodeText(r) }},
	} {
		path := filepath.Join("testdata", tc.file)
		if *updateGolden {
			var buf bytes.Buffer
			if err := tc.encode(&buf, want); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, dec := range []func(*bytes.Reader) (*Trace, error){tc.decode,
			func(r *bytes.Reader) (*Trace, error) { return Decode(r) }} {
			got, err := dec(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: %v", tc.file, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded\n%+v\nwant\n%+v", tc.file, got.Records, want.Records)
			}
			var again bytes.Buffer
			if err := tc.encode(&again, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), data) {
				t.Fatalf("%s: re-encoding changed the bytes", tc.file)
			}
		}
	}
}
