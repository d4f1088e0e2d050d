package experiment

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"eagletree/internal/sched"
	"eagletree/internal/spec"
)

// countedAlloc is least-loaded placement under its own type, so the spec
// registry can tell it apart: every configuration resolve that names it
// builds one, and every CanonKey of such a configuration describes one.
type countedAlloc struct{ sched.LeastLoaded }

var (
	registerCounted           sync.Once
	countedMakes, countedKeys atomic.Int64
)

// countedAllocRef names countedAlloc, registered the first time a test asks
// for it, in this test binary only.
func countedAllocRef() spec.Ref {
	registerCounted.Do(func() {
		spec.Register(spec.Component{Kind: spec.KindAllocator, Name: "test-counted",
			Doc: "test only: least-loaded placement that counts its builds and descriptions",
			Make: func(*spec.Params) (any, error) {
				countedMakes.Add(1)
				return countedAlloc{}, nil
			},
			Describe: func(v any) (map[string]any, bool) {
				if _, ok := v.(countedAlloc); !ok {
					return nil, false
				}
				countedKeys.Add(1)
				return map[string]any{}, true
			}})
	})
	return spec.NamedRef("test-counted")
}

// TestOneResolvePerVariant holds the resolve budget of a compiled document.
// Every configuration in it names countedAlloc, so resolves and CanonKeys
// are counted as builds and descriptions of it:
//   - FromSpec resolves the base once and each variant once, and keys none;
//   - Run resolves each variant once, plus once per preparation build (a
//     cache miss, or every prepared variant without a cache).
//
// The documents are E3 (four variants, one shared preparation), E11 (a
// per-variant preparation) and a three-axis grid over E2, each at one and
// two workers, with and without a prepared-state cache.
func TestOneResolvePerVariant(t *testing.T) {
	e3, _ := SuiteSpec("e3", Small)
	e11, _ := SuiteSpec("e11", Small)
	grid, _ := SuiteSpec("e2", Small)
	grid.Name, grid.Variants = "three-axis", nil
	grid.Grid = []spec.Axis{
		{Name: "seed", Variants: []spec.Variant{
			{Label: "seed=7", Set: map[string]any{"seed": 7}},
			{Label: "seed=99", Set: map[string]any{"seed": 99}},
		}},
		{Name: "policy", Variants: []spec.Variant{
			{Label: "fifo", Set: map[string]any{"policy": "fifo"}},
			{Label: "reads-first", Set: map[string]any{"policy": spec.ParamRef("priority", map[string]any{"prefer": "reads"})}},
		}},
		{Name: "greediness", Variants: []spec.Variant{
			{Label: "g=1", X: 1, Set: map[string]any{"gc.greediness": 1}},
			{Label: "g=3", X: 3, Set: map[string]any{"gc.greediness": 3}},
		}},
	}
	for _, doc := range []spec.Experiment{e3, e11, grid} {
		doc.Base.Alloc = countedAllocRef()
		countedMakes.Store(0)
		countedKeys.Store(0)
		def := compile(t, doc)
		variants := int64(len(def.Variants))
		if got := countedMakes.Load(); got != variants+1 {
			t.Errorf("%s: FromSpec resolved %d configurations for %d variants, want %d (one each and the base's)",
				doc.Name, got, variants, variants+1)
		}
		if got := countedKeys.Load(); got != 0 {
			t.Errorf("%s: FromSpec computed %d CanonKeys, want none", doc.Name, got)
		}
		var prepared int64
		for _, v := range def.Variants {
			if v.Prep.FillDepth > 0 {
				prepared++
			}
		}
		for _, opts := range []Options{{Workers: 1}, {Workers: 2}, {Workers: 1, NoPrepareCache: true}, {Workers: 2, NoPrepareCache: true}} {
			t.Run(fmt.Sprintf("%s/workers=%d/fresh=%v", doc.Name, opts.Workers, opts.NoPrepareCache), func(t *testing.T) {
				var misses atomic.Int64
				opts.Observer = ObserverFunc(func(ev Event) {
					if ev.Kind == EventPrepareMiss {
						misses.Add(1)
					}
				})
				countedMakes.Store(0)
				if _, err := New(opts).Run(context.Background(), def); err != nil {
					t.Fatal(err)
				}
				builds := misses.Load()
				if opts.NoPrepareCache {
					builds = prepared
				}
				if got := countedMakes.Load(); got != variants+builds {
					t.Errorf("Run resolved %d configurations for %d variants and %d preparation builds, want %d",
						got, variants, builds, variants+builds)
				}
			})
		}
	}
}
