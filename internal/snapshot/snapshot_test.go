package snapshot_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/flash"
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

// TestGoldenSnapshot pins the format: testdata/golden-v2-*.snap were written
// by the encoder as it stood before the page-map columns got their bulk
// decode loop (commit ac495d8, agedState's two devices). They must decode,
// describe the device they were taken from, and re-encode to the same bytes.
func TestGoldenSnapshot(t *testing.T) {
	for _, mapping := range []string{"pagemap", "dftl"} {
		data, err := os.ReadFile(filepath.Join("testdata", "golden-v2-"+mapping+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		ds, err := snapshot.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", mapping, err)
		}
		pm := ds.Controller.PageMap
		if ds.Controller.DFTL != nil {
			pm = &ds.Controller.DFTL.Truth
		}
		if ds.Meta.Mapping != mapping || ds.Meta.Seed != 5 || len(pm.Forward) != ds.Meta.LogicalPages ||
			len(pm.Reverse) != ds.Meta.Geometry.Pages() || pm.Mapped != ds.Meta.LogicalPages {
			t.Fatalf("%s: decoded meta %+v, %d forward, %d reverse, %d mapped", mapping, ds.Meta, len(pm.Forward), len(pm.Reverse), pm.Mapped)
		}
		if !bytes.Equal(snapshot.Encode(ds), data) {
			t.Fatalf("%s: re-encoding the golden snapshot changed its bytes", mapping)
		}
	}
}

// TestDecodeTruncatedInsideColumn: a checksummed input that ends inside the
// page-map columns — between varints, and inside a four-byte one — is
// ErrTruncated, never a short column.
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
