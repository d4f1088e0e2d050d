package spec

import (
	"errors"
	"strings"
	"testing"
)

func gridBase() Config {
	return Config{
		Geometry: Geometry{Channels: 1, LUNsPerChannel: 2, BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 4096},
		Policy:   ParamRef("priority", map[string]any{"prefer": "none"}),
	}
}

// TestGridExpansion: axes cross-product in order (first axis outermost),
// labels join with ",", and override sets merge.
func TestGridExpansion(t *testing.T) {
	e := Experiment{
		Name: "grid",
		Base: gridBase(),
		Workload: []Thread{
			{Type: "randwrite", Params: map[string]any{"from": 0, "space": "n", "count": 10, "depth": 4}},
		},
		Grid: []Axis{
			{Name: "greediness", Variants: []Variant{
				{Label: "g=1", X: 1, Set: map[string]any{"gc.greediness": 1}},
				{Label: "g=4", X: 4, Set: map[string]any{"gc.greediness": 4}},
			}},
			{Name: "internal", Variants: []Variant{
				{Label: "internal=equal", Set: map[string]any{"policy.internal": "equal"}},
				{Label: "internal=last", Set: map[string]any{"policy.internal": "last"}},
				{Label: "internal=first", Set: map[string]any{"policy.internal": "first"}},
			}},
		},
	}
	variants, err := e.ExpandVariants()
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 6 {
		t.Fatalf("expanded %d variants, want 6", len(variants))
	}
	wantLabels := []string{
		"g=1,internal=equal", "g=1,internal=last", "g=1,internal=first",
		"g=4,internal=equal", "g=4,internal=last", "g=4,internal=first",
	}
	for i, v := range variants {
		if v.Label != wantLabels[i] {
			t.Errorf("variant %d label %q, want %q", i, v.Label, wantLabels[i])
		}
		if len(v.Set) != 2 {
			t.Errorf("variant %d merged %d overrides, want 2: %v", i, len(v.Set), v.Set)
		}
	}
	if variants[0].X != 1 || variants[3].X != 4 {
		t.Errorf("combination X not taken from the axis fragment: %v, %v", variants[0].X, variants[3].X)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("grid document does not validate: %v", err)
	}

	// Neither variants nor grid: the base runs once, as the implicit "run"
	// variant — the one place that fallback lives.
	bare := Experiment{Name: "bare", Base: gridBase(), Workload: e.Workload}
	implicit, err := bare.ExpandVariants()
	if err != nil {
		t.Fatal(err)
	}
	if len(implicit) != 1 || implicit[0].Label != "run" || implicit[0].Set != nil || implicit[0].X != 0 {
		t.Fatalf("bare document expands to %+v, want one implicit run variant", implicit)
	}
}

// TestGridParamPathOverride: a "slot.param" path overrides one parameter of
// the component currently referenced at the slot, without mutating the
// shared base params map.
func TestGridParamPathOverride(t *testing.T) {
	base := gridBase()
	cfg := base
	if err := cfg.Apply(map[string]any{"policy.internal": "last"}); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Policy.Params["internal"]; got != "last" {
		t.Fatalf("policy.internal not applied: %v", cfg.Policy.Params)
	}
	if got := cfg.Policy.Params["prefer"]; got != "none" {
		t.Fatalf("existing params lost: %v", cfg.Policy.Params)
	}
	if _, leaked := base.Policy.Params["internal"]; leaked {
		t.Fatal("override mutated the shared base params map")
	}
	if _, err := cfg.Resolve(); err != nil {
		t.Fatalf("overridden config does not resolve: %v", err)
	}
}

// TestGridParamPathErrors: parameterizing an empty slot fails, an unknown
// parameter name surfaces as the registry's typed error at resolve time, and
// a path that names no slot stays an UnknownFieldError.
func TestGridParamPathErrors(t *testing.T) {
	cfg := gridBase()
	cfg.Detector = Ref{}
	if err := cfg.Apply(map[string]any{"detector.filters": 4}); err == nil ||
		!strings.Contains(err.Error(), "no named component") {
		t.Fatalf("parameterizing an empty slot: err = %v", err)
	}

	cfg = gridBase()
	if err := cfg.Apply(map[string]any{"policy.bogus": 1}); err != nil {
		t.Fatalf("apply stage rejected the path early: %v", err)
	}
	var ufe *UnknownFieldError
	if _, err := cfg.Resolve(); !errors.As(err, &ufe) {
		t.Fatalf("unknown component parameter: err = %v, want *UnknownFieldError", err)
	}

	cfg = gridBase()
	var ufe2 *UnknownFieldError
	if err := cfg.Apply(map[string]any{"nonsense.param": 1}); !errors.As(err, &ufe2) {
		t.Fatalf("unknown slot path: err = %v, want *UnknownFieldError", err)
	}
}

// TestGridRejectsConflicts: two axes setting the same path, an axis variant
// carrying a workload or preparation override, and mixing grid with an
// explicit variant list are all errors.
func TestGridRejectsConflicts(t *testing.T) {
	wl := []Thread{{Type: "randwrite", Params: map[string]any{"from": 0, "space": "n", "count": 10, "depth": 4}}}
	overlap := Experiment{
		Name: "overlap", Base: gridBase(), Workload: wl,
		Grid: []Axis{
			{Variants: []Variant{{Label: "a", Set: map[string]any{"gc.greediness": 1}}}},
			{Variants: []Variant{{Label: "b", Set: map[string]any{"gc.greediness": 2}}}},
		},
	}
	if _, err := overlap.ExpandVariants(); err == nil || !strings.Contains(err.Error(), "more than one axis") {
		t.Fatalf("overlapping axes: err = %v", err)
	}

	workload := Experiment{
		Name: "axis-workload", Base: gridBase(), Workload: wl,
		Grid: []Axis{{Variants: []Variant{{Label: "a", Workload: wl}}}},
	}
	if _, err := workload.ExpandVariants(); err == nil || !strings.Contains(err.Error(), "configuration paths") {
		t.Fatalf("axis workload override: err = %v", err)
	}

	mixed := Experiment{
		Name: "mixed", Base: gridBase(), Workload: wl,
		Variants: []Variant{{Label: "v"}},
		Grid:     []Axis{{Variants: []Variant{{Label: "a"}}}},
	}
	if _, err := mixed.ExpandVariants(); err == nil || !strings.Contains(err.Error(), "both variants and grid") {
		t.Fatalf("variants+grid: err = %v", err)
	}

	empty := Experiment{
		Name: "empty-axis", Base: gridBase(), Workload: wl,
		Grid: []Axis{{Name: "hollow"}},
	}
	if _, err := empty.ExpandVariants(); err == nil || !strings.Contains(err.Error(), "no variants") {
		t.Fatalf("empty axis: err = %v", err)
	}

	xClash := Experiment{
		Name: "x-clash", Base: gridBase(), Workload: wl,
		Grid: []Axis{
			{Variants: []Variant{{Label: "a", X: 1, Set: map[string]any{"gc.greediness": 1}}}},
			{Variants: []Variant{{Label: "b", X: 2, Set: map[string]any{"os.queue_depth": 8}}}},
		},
	}
	if _, err := xClash.ExpandVariants(); err == nil || !strings.Contains(err.Error(), "more than one axis") {
		t.Fatalf("two axes setting x: err = %v", err)
	}

	// A document with no workload names what lacks one, in these exact
	// words whether its variants are implicit, listed or a grid.
	for _, c := range []struct {
		doc  Experiment
		want string
	}{
		{Experiment{Name: "bare", Base: gridBase()},
			`spec: invalid experiment: "bare" has no workload`},
		{Experiment{Name: "listed", Base: gridBase(), Variants: []Variant{{Label: "v", Workload: wl}, {Label: "run"}}},
			`spec: invalid experiment: "listed": variant "run" has no workload`},
		{Experiment{Name: "gridded", Base: gridBase(), Grid: []Axis{{Variants: []Variant{{Label: "a"}}}}},
			`spec: invalid experiment: "gridded": variant "a" has no workload`},
	} {
		err := c.doc.Validate()
		if err == nil || err.Error() != c.want || !errors.Is(err, ErrExperiment) {
			t.Errorf("%s: err = %v, want %q", c.doc.Name, err, c.want)
		}
	}
}

// TestGridCodecRoundTrip: grid documents survive the codec with the grid
// intact (not pre-expanded), so the on-disk form stays the authored one.
func TestGridCodecRoundTrip(t *testing.T) {
	e := Experiment{
		Name: "grid-codec", Base: gridBase(),
		Workload: []Thread{{Type: "randwrite", Params: map[string]any{"from": 0, "space": "n", "count": 10, "depth": 4}}},
		Grid: []Axis{
			{Name: "axis", Variants: []Variant{
				{Label: "g=1", Set: map[string]any{"gc.greediness": 1}},
				{Label: "g=2", Set: map[string]any{"gc.greediness": 2}},
			}},
		},
	}
	data, err := Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Grid) != 1 || len(got.Grid[0].Variants) != 2 || len(got.Variants) != 0 {
		t.Fatalf("grid lost in round trip: %+v", got)
	}
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-encoding is not a fixed point:\nfirst:  %s\nsecond: %s", data, again)
	}
}
