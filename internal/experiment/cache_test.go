package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"eagletree/internal/snapshot"
	"eagletree/internal/spec"
)

// readOnlyGrid is a sixteen-variant document in the shape the interactive
// loop sweeps: one filled device, variants that differ only in measurement
// knobs and only read, so all of them restore the same prepared state.
func readOnlyGrid(geo spec.Geometry) spec.Experiment {
	axis := func(name, path string, points ...any) spec.Axis {
		a := spec.Axis{Name: name}
		for i, p := range points {
			a.Variants = append(a.Variants, spec.Variant{Label: fmt.Sprintf("%s=%d", name, i), Set: map[string]any{path: p}})
		}
		return a
	}
	return spec.Experiment{
		Name: "read-only-grid",
		Base: spec.Config{
			Geometry:      geo,
			Timing:        spec.NamedRef("slc"),
			Mapping:       spec.NamedRef("pagemap"),
			Overprovision: 0.15,
			GC:            spec.GCSpec{Policy: spec.NamedRef("greedy"), Greediness: 2},
			WL:            spec.NamedRef("off"),
			Policy:        spec.NamedRef("fifo"),
			Alloc:         spec.NamedRef("leastloaded"),
			Detector:      spec.NamedRef("none"),
			OS:            spec.OSSpec{Policy: spec.NamedRef("fifo"), QueueDepth: 32},
			Seed:          7,
		},
		Prep: &spec.Prep{FillDepth: 32},
		Workload: []spec.Thread{{Type: "mix", Params: map[string]any{
			"from": 0, "space": "n", "count": 50, "read_fraction": 1, "depth": 16}}},
		Grid: []spec.Axis{
			axis("policy", "policy", spec.NamedRef("fifo"), spec.NamedRef("fair"),
				spec.ParamRef("priority", map[string]any{"prefer": "reads"}),
				spec.ParamRef("priority", map[string]any{"prefer": "writes"})),
			axis("alloc", "alloc", spec.NamedRef("leastloaded"), spec.NamedRef("roundrobin")),
			axis("greed", "gc.greediness", 1, 2),
		},
	}
}

// countDecodes counts every snapshot decode the cache and the Runner make
// until the test ends.
func countDecodes(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	t.Cleanup(func() { decodeState = snapshot.Decode })
	decodeState = func(data []byte) (*snapshot.DeviceState, error) {
		n.Add(1)
		return snapshot.Decode(data)
	}
	return &n
}

// TestRunVariantDecodesOncePerKey: the fabric worker runs every lease
// through RunVariant on one runner and one cache. The decoded state belongs
// to the cache entry, so seventeen leases of one prepared device decode it
// once — they used to decode it once per lease's runState.
func TestRunVariantDecodesOncePerKey(t *testing.T) {
	def, err := FromSpec(readOnlyGrid(spec.Geometry{Channels: 4, LUNsPerChannel: 2, BlocksPerLUN: 256, PagesPerBlock: 128, PageSize: 4096}))
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Variants) != 16 {
		t.Fatalf("grid expands to %d variants, want 16", len(def.Variants))
	}
	decodes := countDecodes(t)
	cache := NewStateCache("")
	runner := New(Options{Workers: 1, Cache: cache})
	ctx := context.Background()
	// Lease 0 prepares the device and decodes what it built.
	if _, err := runner.RunVariant(ctx, def, 0); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 || decodes.Load() != 1 {
		t.Fatalf("after one lease the cache holds %d states decoded %d times, want 1 and 1", cache.Len(), decodes.Load())
	}
	for i := range def.Variants {
		if _, err := runner.RunVariant(ctx, def, i); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 1 || decodes.Load() != 1 {
		t.Fatalf("after seventeen leases the cache holds %d states decoded %d times, want 1 and 1: the state is decoded per lease",
			cache.Len(), decodes.Load())
	}
}

// TestPeekDiskHitDoesNotWrite: a disk hit admits the bytes it read and
// writes nothing — Peek used to go loadDisk → Put → saveDisk and rewrite
// every state a coordinator opened from a warm cache. The file must be the
// same file (inode) with the same mtime after Peek and after a following
// Fetch, and a read-only cache directory must still serve hits.
func TestPeekDiskHitDoesNotWrite(t *testing.T) {
	def := suiteDef(t, "e11", Small)
	data, err := buildPrepared(context.Background(), prepConfig(def.Base(), def.Base()), PrepareSpec{FillDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	NewStateCache(dir).Put("k", data)
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("Put left %v in the cache directory (err %v), want one state file", files, err)
	}
	// An mtime in the past makes any rewrite visible without sleeping.
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(files[0], old, old); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(after string) {
		t.Helper()
		now, err := os.Stat(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(before, now) || !now.ModTime().Equal(before.ModTime()) {
			t.Fatalf("after %s the state file was replaced or rewritten (mtime %v, was %v)", after, now.ModTime(), before.ModTime())
		}
		if all, _ := filepath.Glob(filepath.Join(dir, "*")); len(all) != 1 {
			t.Fatalf("after %s the cache directory holds %v", after, all)
		}
	}
	noBuild := func() ([]byte, error) { return nil, errors.New("warm cache missed") }

	c := NewStateCache(dir)
	if got, ok := c.Peek("k"); !ok || len(got) != len(data) {
		t.Fatalf("Peek on a warm directory: %d bytes, ok=%v", len(got), ok)
	}
	unchanged("Peek")
	if _, hit, err := c.Fetch("k", noBuild); err != nil || !hit {
		t.Fatalf("Fetch after Peek: hit=%v err=%v", hit, err)
	}
	unchanged("Fetch")

	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	ro := NewStateCache(dir)
	if _, ok := ro.Peek("k"); !ok {
		t.Fatal("Peek missed in a read-only cache directory")
	}
	if _, hit, err := ro.Fetch("k", noBuild); err != nil || !hit {
		t.Fatalf("Fetch in a read-only cache directory: hit=%v err=%v", hit, err)
	}
	if _, hit, err := NewStateCache(dir).Fetch("k", noBuild); err != nil || !hit {
		t.Fatalf("cold Fetch in a read-only cache directory: hit=%v err=%v", hit, err)
	}
	unchanged("read-only hits")
}
