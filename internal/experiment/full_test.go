package experiment

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eagletree/internal/spec"
)

// Full-scale golden files live under specs/full/: the pinned -scale full
// spec documents (the benchmark and the CI cache key read them by path) plus
// the two-seed report dump the CI full-scale job diffs.
const fullSpecDir = "../../specs/full"

// TestGoldenSpecFilesFull pins the checked-in specs/full/e*.json files to
// the byte-exact encodings of the scaled embedded documents: the full-scale
// files are derived data, never edited by hand. Regenerate with
//
//	go test ./internal/experiment -run TestGoldenSpecFilesFull -args -update-specs
func TestGoldenSpecFilesFull(t *testing.T) {
	for i, e := range SuiteSpecs(Full) {
		want, err := spec.Encode(e)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		path := filepath.Join(fullSpecDir, fmt.Sprintf("e%d.json", i+1))
		if *updateSpecs {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v — regenerate with -args -update-specs", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale for %s — regenerate with -args -update-specs", path, e.Name)
		}
	}
}

// TestFullScaleGolden is the full-scale bit-identity gate: the complete
// E1–E14 suite at -scale full, seeds 7 and 12345, must reproduce the
// committed specs/full/golden.txt byte for byte. The CI full-scale job runs
// it on every change; data-layer rework that alters any simulated outcome
// fails here before a human ever reads a chart. Regenerate with
//
//	go test ./internal/experiment -run TestFullScaleGolden -args -update-specs
func TestFullScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite at full scale twice; skipped with -short")
	}
	path := filepath.Join(fullSpecDir, "golden.txt")
	got := goldenDump(t, Full)
	if *updateSpecs {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — regenerate with -args -update-specs", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("full-scale suite reports drifted from %s — if the change is intended, regenerate with -args -update-specs and explain the drift in the PR", path)
	}
}

// TestFullScaleSnapshotRestoreDeterministic extends the small-scale
// snapshot acceptance gate to -scale full: a device restored from a saved
// snapshot must behave bit-identically to a freshly prepared one at the
// sizes the paper's experiments actually use — on the sequential runner and
// the parallel one alike. Full-scale states exercise the large-array
// save/restore paths (SoA column encode/decode, free-pool reconstruction)
// that small-scale tests cannot reach.
func TestFullScaleSnapshotRestoreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares a full-scale device three times; skipped with -short")
	}
	def := suiteDef(t, "e11", Full) // fresh-vs-aged preparation: the snapshot-heaviest definition
	fresh, err := New(Options{Workers: 1, NoPrepareCache: true}).Run(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cached, err := New(Options{Workers: workers}).Run(context.Background(), def)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Fatalf("%d-worker snapshot-restored results differ from fresh preparation at full scale:\nfresh:  %+v\ncached: %+v",
				workers, fresh, cached)
		}
	}
}
