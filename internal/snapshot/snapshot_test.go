package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/flash"
	"eagletree/internal/ftl"
	"eagletree/internal/osched"
	"eagletree/internal/snapshot"
	"eagletree/internal/workload"
)

// agedState builds a small stack, ages it until garbage collection has run,
// and returns its snapshot. The returned state is "mid-GC" in the device-
// lifecycle sense: free space sits at the collection floor, blocks hold a
// mix of live and stale pages, open frontiers are partially programmed and
// the GC counters are non-zero.
func agedState(t *testing.T, mapping controller.MappingScheme) *snapshot.DeviceState {
	t.Helper()
	cfg := core.Config{
		Controller: controller.Config{
			Geometry:      flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 40, PagesPerBlock: 16, PageSize: 4096},
			Mapping:       mapping,
			Overprovision: 0.15,
			GCGreediness:  2,
			WL:            controller.WLOff(),
		},
		OS:   osched.Config{QueueDepth: 16},
		Seed: 5,
	}
	if mapping == controller.MapDFTL {
		cfg.Controller.CMTEntries = 128
		cfg.Controller.ReservedTransBlocks = 3
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.LogicalPages())
	seq := s.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: 16})
	s.Add(&workload.RandomWriter{From: 0, Space: n, Count: 2 * n, Depth: 16}, seq)
	s.Run()
	if s.Controller.Counters().GCErases == 0 {
		t.Fatal("aging workload never triggered GC; snapshot would not cover mid-GC state")
	}
	ds, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestRoundTripExact: encode → decode → encode must reproduce the state
// deep-equal and the bytes identical, including for a snapshot taken mid-GC
// (GC counters live, stale pages everywhere, partial open blocks).
func TestRoundTripExact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mapping controller.MappingScheme
	}{
		{"pagemap-mid-gc", controller.MapPageRAM},
		{"dftl-mid-gc", controller.MapDFTL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := agedState(t, tc.mapping)
			if ds.Controller.Counters.GCMigratedPages == 0 {
				t.Fatal("state carries no GC work")
			}
			data := snapshot.Encode(ds)
			got, err := snapshot.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ds, got) {
				t.Fatal("decoded state differs from the original")
			}
			if again := snapshot.Encode(got); !bytes.Equal(data, again) {
				t.Fatalf("re-encoded bytes differ: %d vs %d bytes", len(data), len(again))
			}
		})
	}
}

var updateGolden = flag.Bool("update-golden-snap", false, "rewrite testdata/golden-v3-*.snap from agedState")

// TestGoldenSnapshot pins the format: testdata/golden-v3-*.snap were written
// by the version-3 encoder from agedState's two devices (rewrite them with
// -update-golden-snap only when the format version changes). They must
// decode, describe the device they were taken from, and re-encode to the
// same bytes. testdata/golden-v2-*.snap, the same devices written by the
// version-2 encoder with its reverse column, stay as fixtures every decode
// must answer with ErrVersion.
func TestGoldenSnapshot(t *testing.T) {
	for _, tc := range []struct {
		mapping string
		scheme  controller.MappingScheme
	}{{"pagemap", controller.MapPageRAM}, {"dftl", controller.MapDFTL}} {
		path := filepath.Join("testdata", "golden-v3-"+tc.mapping+".snap")
		if *updateGolden {
			if err := os.WriteFile(path, snapshot.Encode(agedState(t, tc.scheme)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := snapshot.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.mapping, err)
		}
		pm := ds.Controller.PageMap
		if ds.Controller.DFTL != nil {
			pm = &ds.Controller.DFTL.Truth
		}
		if ds.Meta.Mapping != tc.mapping || ds.Meta.Seed != 5 || len(ds.Controller.Array.Pages) != ds.Meta.Geometry.Pages() ||
			len(pm.Forward) != ds.Meta.LogicalPages || pm.Mapped != ds.Meta.LogicalPages {
			t.Fatalf("%s: decoded meta %+v, %d pages, %d forward, %d mapped", tc.mapping, ds.Meta,
				len(ds.Controller.Array.Pages), len(pm.Forward), pm.Mapped)
		}
		if !bytes.Equal(snapshot.Encode(ds), data) {
			t.Fatalf("%s: re-encoding the golden snapshot changed its bytes", tc.mapping)
		}

		old, err := os.ReadFile(filepath.Join("testdata", "golden-v2-"+tc.mapping+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if ds, err := snapshot.Decode(old); ds != nil || !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("%s: a version-2 snapshot decoded to %v, %v; want ErrVersion", tc.mapping, ds, err)
		}
	}
}

// TestDecodeRejectsBadForwardColumn: a checksummed snapshot whose forward
// column names a page past the page-state column, a negative page other
// than -1, one page for two LPNs, or a mapped count its entries do not add
// up to is ErrCorrupt — restore derives the reverse column from it.
func TestDecodeRejectsBadForwardColumn(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(pm *ftl.PageMapState, pages int)
	}{
		{"past the last page", func(pm *ftl.PageMapState, pages int) { pm.Forward[5] = int32(pages) }},
		{"negative", func(pm *ftl.PageMapState, pages int) { pm.Forward[5] = -2 }},
		{"two LPNs on one page", func(pm *ftl.PageMapState, pages int) { pm.Forward[5] = pm.Forward[9] }},
		{"mapped count", func(pm *ftl.PageMapState, pages int) { pm.Mapped-- }},
	} {
		for _, mapping := range []controller.MappingScheme{controller.MapPageRAM, controller.MapDFTL} {
			ds := agedState(t, mapping)
			pm := ds.Controller.PageMap
			if pm == nil {
				pm = &ds.Controller.DFTL.Truth
			}
			tc.edit(pm, len(ds.Controller.Array.Pages))
			if _, err := snapshot.Decode(snapshot.Encode(ds)); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt", tc.name, ds.Meta.Mapping, err)
			}
		}
	}
}

// badBlockMeta names checksummed snapshots whose block metadata contradicts
// its page states or its free counts. Past the decoder, the first three
// panic in restore or mid-run and the next two restore silently wrong; the
// next two leave the counts alone and break the programmed prefix instead;
// the last stores a per-LUN free count the block columns do not give.
var badBlockMeta = []struct {
	name   string
	encode func(ds *snapshot.DeviceState) []byte
}{
	{"valid count past the last block's pages", edited(func(a *flash.ArrayState, ppb int) {
		a.Blocks.ValidPages[len(a.Blocks.ValidPages)-1] = int32(ppb + 1)
	})},
	{"negative valid count", edited(func(a *flash.ArrayState, ppb int) { a.Blocks.ValidPages[5] = -3 })},
	{"valid count past a full block's pages", edited(func(a *flash.ArrayState, ppb int) { a.Blocks.ValidPages[5] = int32(ppb + 1) })},
	{"erase count past int32", func(ds *snapshot.DeviceState) []byte {
		// The column cannot hold 2^40: find block 5's erase-count varint
		// by changing only it, and widen it in the encoding.
		ec := ds.Controller.Array.Blocks.EraseCount
		ec[5] = math.MaxInt32
		top := snapshot.Encode(ds)
		ec[5] = math.MaxInt32 - 1
		at := firstDiff(top, snapshot.Encode(ds))
		_, n := binary.Varint(top[at:])
		wide := binary.AppendVarint(append([]byte(nil), top[:at]...), 1<<40)
		return reseal(append(wide, top[at+n:len(top)-4]...))
	}},
	{"write pointer past the block", edited(func(a *flash.ArrayState, ppb int) { a.Blocks.WritePtr[5] = 1 << 20 })},
	{"programmed page past the write pointer", edited(func(a *flash.ArrayState, ppb int) {
		a.Pages[blockWhere(a, func(i int) bool { return a.Blocks.WritePtr[i] < int32(ppb) })*ppb+ppb-1] = flash.PageInvalid
	})},
	{"erased page below the write pointer", edited(func(a *flash.ArrayState, ppb int) {
		i := blockWhere(a, func(i int) bool { return a.Blocks.WritePtr[i] > a.Blocks.ValidPages[i] }) * ppb
		for a.Pages[i] != flash.PageInvalid {
			i++ // to the block's first stale page
		}
		a.Pages[i] = flash.PageFree
	})},
	{"free count off by one", func(ds *snapshot.DeviceState) []byte {
		// The encoder derives the count from the columns: retire a free
		// block, then put its bad flag back and keep its LUN's lowered count.
		a := &ds.Controller.Array
		i := blockWhere(a, func(i int) bool { return !a.Blocks.Bad[i] && a.Blocks.WritePtr[i] == 0 })
		free := snapshot.Encode(ds)
		a.Blocks.Bad[i] = true
		retired := snapshot.Encode(ds)
		at := firstDiff(free, retired) // the flag; the count follows the block records
		retired[at] = free[at]
		return reseal(retired[:len(retired)-4])
	}},
}

// edited encodes a snapshot after an edit to its array state.
func edited(edit func(a *flash.ArrayState, ppb int)) func(*snapshot.DeviceState) []byte {
	return func(ds *snapshot.DeviceState) []byte {
		edit(&ds.Controller.Array, ds.Meta.Geometry.PagesPerBlock)
		return snapshot.Encode(ds)
	}
}

// blockWhere returns the column index of the first block that satisfies ok.
func blockWhere(a *flash.ArrayState, ok func(i int) bool) int {
	for i := range a.Blocks.Bad {
		if ok(i) {
			return i
		}
	}
	panic("no block qualifies")
}

// firstDiff returns the offset of the first byte at which two encodings
// differ.
func firstDiff(a, b []byte) int {
	i := 0
	for a[i] == b[i] {
		i++
	}
	return i
}

// TestDecodeRejectsBadBlockMeta: a checksummed snapshot whose block metadata
// disagrees with its page states or its free counts is ErrCorrupt.
func TestDecodeRejectsBadBlockMeta(t *testing.T) {
	for _, tc := range badBlockMeta {
		ds := agedState(t, controller.MapPageRAM)
		if _, err := snapshot.Decode(tc.encode(ds)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestDecodeIgnoresHeaderGeometry: the decoder sizes everything from the
// input's own columns, never from the header's geometry, so a checksummed
// snapshot claiming a 2^40-block device decodes with the allocations of the
// real one (core.Restore then rejects the mismatch).
func TestDecodeIgnoresHeaderGeometry(t *testing.T) {
	ds := agedState(t, controller.MapPageRAM)
	honest := snapshot.Encode(ds)
	ds.Meta.Geometry.BlocksPerLUN = 1 << 40
	lying := snapshot.Encode(ds)
	decodeBytes := func(data []byte) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := snapshot.Decode(data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if h, l := decodeBytes(honest), decodeBytes(lying); l > 2*h {
		t.Fatalf("decoding a header that claims 2^40 blocks allocated %d bytes, the honest one %d", l, h)
	}
}

// TestDecodeTruncatedInsideColumn: a checksummed input that ends inside the
// forward column — between varints, and inside a five-byte one — is
// ErrTruncated, never a short column; whole, the widened input is
// ErrCorrupt, its entry being no page of the device.
func TestDecodeTruncatedInsideColumn(t *testing.T) {
	ds := agedState(t, controller.MapPageRAM)
	valid := snapshot.Encode(ds)
	ds.Controller.PageMap.Forward[0] = math.MaxInt32
	wide := snapshot.Encode(ds)
	at := 0
	for wide[at] == valid[at] {
		at++
	}
	for _, keep := range []int{at, at + 1, at + 3, at + 40} {
		if _, err := snapshot.Decode(reseal(wide[:keep])); !errors.Is(err, snapshot.ErrTruncated) {
			t.Fatalf("payload cut at %d (column starts its first varint at %d): got %v, want ErrTruncated", keep, at, err)
		}
	}
	if _, err := snapshot.Decode(wide); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("forward entry %d on a %d-page device: got %v, want ErrCorrupt", math.MaxInt32, ds.Meta.Geometry.Pages(), err)
	}
}

// TestWriteRawFileConcurrentWriters: eight writers of one path beside a
// reader. Every read must see a whole snapshot, and no writer may leave a
// temporary file behind — with one fixed temp name the writers truncated and
// renamed each other's half-written files.
func TestWriteRawFileConcurrentWriters(t *testing.T) {
	data := snapshot.Encode(agedState(t, controller.MapPageRAM))
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.state")
	if err := snapshot.WriteRawFile(path, data); err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 40; i++ {
				if err := snapshot.WriteRawFile(path, data); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if _, err := snapshot.ReadFile(path); err != nil {
			t.Fatalf("reader saw a broken file: %v", err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "shared.state" {
		t.Fatalf("directory holds %v after the writers finished, want only shared.state", entries)
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("shared.state: mode %v, err %v; want 0644 so other users of a shared cache can read it", info.Mode(), err)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data := snapshot.Encode(agedState(t, controller.MapPageRAM))
	data[0] = 'X'
	if _, err := snapshot.Decode(data); !errors.Is(err, snapshot.ErrNotSnapshot) {
		t.Fatalf("bad magic: got %v, want ErrNotSnapshot", err)
	}
	if _, err := snapshot.Decode([]byte("EG")); !errors.Is(err, snapshot.ErrNotSnapshot) {
		t.Fatalf("short input: got %v, want ErrNotSnapshot", err)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	data := snapshot.Encode(agedState(t, controller.MapPageRAM))
	data[7] = 99 // version byte follows the 7-byte magic
	if _, err := snapshot.Decode(data); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("wrong version: got %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data := snapshot.Encode(agedState(t, controller.MapPageRAM))
	// Flip one byte in the middle of the payload: the checksum must catch it
	// before any field is interpreted.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := snapshot.Decode(corrupt); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("flipped byte: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := snapshot.Encode(agedState(t, controller.MapPageRAM))
	// Any truncation that leaves room for the trailer breaks the checksum;
	// cutting into the header is reported as truncation outright.
	for _, keep := range []int{len(data) - 1, len(data) / 2, 16} {
		if _, err := snapshot.Decode(data[:keep]); !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrTruncated) {
			t.Fatalf("truncated to %d bytes: got %v, want ErrCorrupt or ErrTruncated", keep, err)
		}
	}
	if _, err := snapshot.Decode(data[:9]); !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("header-only input: got %v, want ErrTruncated", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	ds := agedState(t, controller.MapPageRAM)
	path := filepath.Join(t.TempDir(), "dev.state")
	if err := snapshot.WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, got) {
		t.Fatal("file round trip altered the state")
	}
	if _, err := snapshot.ReadFile(filepath.Join(t.TempDir(), "missing.state")); err == nil {
		t.Fatal("reading a missing file succeeded")
	}
	// A corrupted file on disk must be rejected like corrupted bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.ReadFile(path); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("corrupted file: got %v, want ErrCorrupt", err)
	}
}
