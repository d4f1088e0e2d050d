package experiment_test

import (
	"fmt"
	"testing"

	"eagletree/internal/experiment"
	"eagletree/internal/resultstore"
	"eagletree/internal/sim"
	"eagletree/internal/spec"
)

// seedGrid is a three-axis grid over E2's document whose first axis sets the
// seed, so the rows NewSink records carry more than one seed.
func seedGrid(t *testing.T) spec.Experiment {
	t.Helper()
	doc, ok := experiment.SuiteSpec("e2", experiment.Small)
	if !ok {
		t.Fatal("no suite experiment e2")
	}
	doc.Name = "seed-grid"
	doc.Variants = nil
	doc.Grid = []spec.Axis{
		{Name: "seed", Variants: []spec.Variant{
			{Label: "seed=7", Set: map[string]any{"seed": 7}},
			{Label: "seed=99", Set: map[string]any{"seed": 99}},
		}},
		{Name: "policy", Variants: []spec.Variant{
			{Label: "fifo", Set: map[string]any{"policy": "fifo"}},
			{Label: "reads-first", Set: map[string]any{"policy": map[string]any{"name": "priority", "params": map[string]any{"prefer": "reads"}}}},
		}},
		{Name: "greediness", Variants: []spec.Variant{
			{Label: "g=1", X: 1, Set: map[string]any{"gc.greediness": 1}},
			{Label: "g=3", X: 3, Set: map[string]any{"gc.greediness": 3}},
		}},
	}
	return doc
}

// TestCompiledVariantsMatchKeys: a spec-compiled variant's configuration is
// its document's. For every suite document at both scales and a three-axis
// grid, the configuration the Runner resolves for variant i under the CLI's
// -timeline bucket keeps that bucket, has the CanonKey Keys()[i] — the key
// the fabric leases by and NewSink records — and carries the seed NewSink
// records in row i.
func TestCompiledVariantsMatchKeys(t *testing.T) {
	docs := append(experiment.SuiteSpecs(experiment.Small), experiment.SuiteSpecs(experiment.Full)...)
	docs = append(docs, seedGrid(t))
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const bucket = 20 * sim.Millisecond // the CLI's -timeline width
	for _, doc := range docs {
		t.Run(fmt.Sprintf("%s/f=%d", doc.Name, doc.Factor), func(t *testing.T) {
			def, err := experiment.FromSpec(doc)
			if err != nil {
				t.Fatal(err)
			}
			keys, err := def.Keys()
			if err != nil {
				t.Fatal(err)
			}
			sink, err := resultstore.NewSink(store, doc, "test")
			if err != nil {
				t.Fatal(err)
			}
			if len(def.Variants) != len(keys) {
				t.Fatalf("%d compiled variants, %d keys", len(def.Variants), len(keys))
			}
			seeds := make([]uint64, len(def.Variants))
			def.SeriesBucket = bucket
			for i, v := range def.Variants {
				cfg, err := experiment.RunConfig(def, v)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.SeriesBucket != bucket {
					t.Errorf("variant %q: runs with SeriesBucket %v, want the runner's %v", v.Label, cfg.SeriesBucket, bucket)
				}
				cfg.SeriesBucket = doc.Base.SeriesBucket.D()
				key, err := spec.CanonKey(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if key != keys[i] {
					t.Errorf("variant %q: the runner's config keys as\n%s\nKeys()[%d] is\n%s", v.Label, key, i, keys[i])
				}
				if seeds[i] = cfg.Seed; seeds[i] == 0 {
					seeds[i] = 1
				}
				sink.OnEvent(experiment.Event{Kind: experiment.EventVariantDone, Experiment: doc.Name,
					Variant: v.Label, Index: i, Variants: len(keys), Row: &experiment.Row{Label: v.Label}})
			}
			rows := sink.Rows()
			if len(rows) != len(seeds) {
				t.Fatalf("sink holds %d rows, want %d", len(rows), len(seeds))
			}
			for i, row := range rows {
				if row.Seed != seeds[i] {
					t.Errorf("row %d (%s): seed %d, the runner's config runs seed %d", i, row.Label, row.Seed, seeds[i])
				}
			}
		})
	}
}
