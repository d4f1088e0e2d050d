package spec

import (
	"errors"
	"slices"
	"testing"
)

// registerForTest registers a component for the duration of one test.
func registerForTest(t *testing.T, c Component) {
	t.Helper()
	Register(c)
	t.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		delete(registry[c.Kind], c.Name)
		regOrder[c.Kind] = slices.DeleteFunc(regOrder[c.Kind], func(n string) bool { return n == c.Name })
	})
}

// sixMethodPolicy stands for an out-of-tree policy written against an older
// sched.Policy: registered under kind "policy", but not one.
type sixMethodPolicy struct{}

func (sixMethodPolicy) Name() string { return "stale" }

// TestWrongTypedComponentIsTypedError: components come from anyone through
// the public registry, so a factory that builds the wrong Go type for its
// kind must fail the document with a *ComponentTypeError naming the kind, the
// component and the type the slot needs — at the top level and nested as a
// deadline fallback — never panic.
func TestWrongTypedComponentIsTypedError(t *testing.T) {
	registerForTest(t, Component{
		Kind: KindPolicy, Name: "test-stale-policy",
		Make: func(*Params) (any, error) { return sixMethodPolicy{}, nil },
	})
	refs := map[string]Ref{
		"policy": {Name: "test-stale-policy"},
		"fallback": {Name: "deadline", Params: map[string]any{
			"read_deadline": "1ms",
			"fallback":      map[string]any{"name": "test-stale-policy"},
		}},
	}
	for name, ref := range refs {
		cfg := Config{Geometry: Geometry{1, 1, 16, 8, 4096}, Policy: ref}
		_, err := cfg.Resolve()
		var cte *ComponentTypeError
		if !errors.As(err, &cte) {
			t.Fatalf("%s: Resolve error %v, want *ComponentTypeError", name, err)
		}
		if cte.Kind != KindPolicy || cte.Name != "test-stale-policy" || cte.Want != "sched.Policy" || cte.Got != "spec.sixMethodPolicy" {
			t.Errorf("%s: error names %+v", name, *cte)
		}
	}
}
