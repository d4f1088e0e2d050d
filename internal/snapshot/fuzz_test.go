package snapshot_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/flash"
	"eagletree/internal/osched"
	"eagletree/internal/snapshot"
	"eagletree/internal/workload"
)

func fuzzSeedConfig() core.Config {
	return core.Config{
		Controller: controller.Config{
			Geometry:      flash.Geometry{Channels: 1, LUNsPerChannel: 1, BlocksPerLUN: 24, PagesPerBlock: 16, PageSize: 4096},
			Mapping:       controller.MapPageRAM,
			Overprovision: 0.15,
			GCGreediness:  2,
			WL:            controller.WLOff(),
		},
		OS:   osched.Config{QueueDepth: 8},
		Seed: 3,
	}
}

func fuzzSeedWorkload(st *core.Stack) {
	n := int64(st.LogicalPages())
	seq := st.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: 8})
	st.Add(&workload.RandomWriter{From: 0, Space: n, Count: n, Depth: 8}, seq)
}

// fuzzSeedState builds the smallest stack worth snapshotting: a filled
// 1-channel device whose encoded form exercises every section of the codec.
func fuzzSeedState(tb testing.TB) *snapshot.DeviceState {
	tb.Helper()
	st, err := core.New(fuzzSeedConfig())
	if err != nil {
		tb.Fatal(err)
	}
	fuzzSeedWorkload(st)
	st.Run()
	ds, err := st.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// reseal gives a cut-short snapshot (header and a payload prefix) a matching
// checksum, so the cut reaches the field decoders instead of the CRC gate.
func reseal(prefix []byte) []byte {
	const header = 8 // magic + version
	return binary.LittleEndian.AppendUint32(append([]byte(nil), prefix...), crc32.ChecksumIEEE(prefix[header:]))
}

// FuzzDecode hammers the snapshot decoder with mutated and truncated inputs.
// The contract under test: Decode returns one of the codec's typed errors —
// ErrNotSnapshot, ErrVersion, ErrTruncated, ErrCorrupt — and never panics,
// never over-allocates on hostile length fields, and any input it accepts
// re-encodes without panicking. The committed corpus under
// testdata/fuzz/FuzzDecode seeds the interesting shapes: a whole valid
// snapshot, a truncation, a bit flip and a bare magic header.
func FuzzDecode(f *testing.F) {
	valid := snapshot.Encode(fuzzSeedState(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("EGTSNAP"))
	f.Add([]byte{})
	// The forward column goes through the bulk varint loop, whose inline
	// path stops at three bytes, and then through the column checks: seed a
	// wide out-of-range entry (a small device has no wide varints of its
	// own), a checksummed input that ends inside it, a negative entry other
	// than -1, and two LPNs on one page.
	forward := func(edit func(fwd []int32)) []byte {
		ds := fuzzSeedState(f)
		edit(ds.Controller.PageMap.Forward)
		return snapshot.Encode(ds)
	}
	wide := forward(func(fwd []int32) { fwd[0] = math.MaxInt32 })
	f.Add(wide)
	at := 0
	for wide[at] == valid[at] {
		at++ // first byte of the widened varint
	}
	f.Add(reseal(wide[:at+3]))
	f.Add(forward(func(fwd []int32) { fwd[1] = -2 }))
	f.Add(forward(func(fwd []int32) { fwd[2] = fwd[1] }))
	// Block metadata the page states contradict.
	for _, tc := range badBlockMeta {
		f.Add(tc.encode(fuzzSeedState(f)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := snapshot.Decode(data)
		if err != nil {
			for _, typed := range []error{snapshot.ErrNotSnapshot, snapshot.ErrVersion,
				snapshot.ErrTruncated, snapshot.ErrCorrupt} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("Decode returned an untyped error: %v", err)
		}
		// The CRC gate means acceptance implies a genuinely well-formed
		// payload; such a state must survive re-encoding.
		snapshot.Encode(ds)
	})
}
