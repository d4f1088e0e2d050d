package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fullConfig sets every Config leaf to a non-zero value, so its encoding
// names every settable path. References carry no parameters: they encode as
// bare strings, and every JSON leaf is then a scalar.
func fullConfig() Config {
	return Config{
		Geometry:      Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 64, PagesPerBlock: 32, PageSize: 4096},
		Timing:        NamedRef("slc"),
		Features:      Features{Copyback: true, Interleaving: true},
		Mapping:       NamedRef("dftl"),
		Overprovision: 0.2,
		GC:            GCSpec{Policy: NamedRef("greedy"), Greediness: 4, Copyback: true},
		WL:            NamedRef("full"),
		Policy:        NamedRef("fifo"),
		Alloc:         NamedRef("leastloaded"),
		Detector:      NamedRef("mbf"),
		OpenInterface: true,
		WriteBuffer:   WriteBufferSpec{Pages: 8, Latency: 5000},
		RAM:           RAMSpec{Bytes: 1 << 20, SafeBytes: 1 << 19},
		BadBlocks:     BadBlockSpec{Fraction: 0.01, Seed: 3},
		Fault:         &Ref{Name: "random"},
		OS:            OSSpec{Policy: NamedRef("cfq"), QueueDepth: 16},
		Seed:          7,
		SeriesBucket:  1000,
		TraceCap:      64,
		LockBus:       true,
	}
}

// jsonLeaves flattens a decoded JSON object into dotted leaf paths.
func jsonLeaves(prefix string, obj map[string]any, out map[string]any) {
	for k, v := range obj { //lint:ordered writes land in a keyed map
		if sub, ok := v.(map[string]any); ok {
			jsonLeaves(prefix+k+".", sub, out)
			continue
		}
		out[prefix+k] = v
	}
}

// fullLeaves maps every leaf path of fullConfig's encoding to its value.
func fullLeaves(t *testing.T) map[string]any {
	t.Helper()
	data, err := json.Marshal(fullConfig())
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	leaves := map[string]any{}
	jsonLeaves("", obj, leaves)
	return leaves
}

// setJSON replaces the value at a dotted path of a decoded JSON object.
func setJSON(obj map[string]any, path string, v any) {
	parts := strings.Split(path, ".")
	for _, p := range parts[:len(parts)-1] {
		obj = obj[p].(map[string]any)
	}
	obj[parts[len(parts)-1]] = v
}

// decodeWith decodes base's encoding with one path replaced, as strictly as
// a spec document is decoded.
func decodeWith(t *testing.T, base Config, path string, v any) (Config, error) {
	t.Helper()
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	setJSON(obj, path, v)
	if data, err = json.Marshal(obj); err != nil {
		t.Fatal(err)
	}
	var out Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(&out)
	return out, err
}

// leafClass sorts a JSON leaf by the Go type behind it, from what decoding
// accepts: the error texts Apply owes depend on it.
func leafClass(t *testing.T, base Config, path string, leaf any) string {
	t.Helper()
	accepts := func(v any) bool {
		_, err := decodeWith(t, base, path, v)
		return err == nil
	}
	switch leaf.(type) {
	case bool:
		return "bool"
	case string:
		if accepts(3.0) {
			return "duration"
		}
		return "ref"
	case float64:
		switch {
		case accepts(0.25):
			return "float"
		case accepts(-1.0):
			return "int"
		default:
			return "uint"
		}
	}
	t.Fatalf("%s: unexpected JSON leaf %T", path, leaf)
	return ""
}

// TestEveryConfigPathSettable enumerates the settable paths from the
// encoding of a fully populated Config — not from Apply's own table — so a
// Config field added without a settable path fails here. For every path and
// probe value, Apply must agree with decoding a document carrying the same
// value: both fail, or both succeed with equal configurations. Every type
// error keeps its exact text, and so do unknown paths and parameterizing an
// empty slot.
func TestEveryConfigPathSettable(t *testing.T) {
	base := fullConfig()
	leaves := fullLeaves(t)
	paths := sortedKeys(leaves)
	// A field fullConfig leaves zero is omitted from the encoding and would
	// go unchecked.
	var populated func(v reflect.Value, name string)
	populated = func(v reflect.Value, name string) {
		if v.Kind() == reflect.Struct && v.Type() != reflect.TypeOf(Ref{}) {
			for i := range v.NumField() {
				populated(v.Field(i), name+"."+v.Type().Field(i).Name)
			}
		} else if v.IsZero() {
			t.Errorf("fullConfig leaves %s zero; populate it", name)
		}
	}
	populated(reflect.ValueOf(base), "Config")

	probes := []any{3.0, 0.25, -1.0, true, false, "3ms", "bogus", "some-name",
		map[string]any{"name": "n", "params": map[string]any{"k": 1.0}}}
	wantErr := map[string]map[string]string{
		"int":      {"0.25": "%s: 0.25 is not an integer"},
		"uint":     {"0.25": "%s: 0.25 is not an integer", "-1": "%s: -1 is negative"},
		"bool":     {"3": "%s: cannot use float64 as a bool"},
		"duration": {"bogus": `%s: bad duration "bogus": time: invalid duration "bogus"`},
		"ref":      {"3": "%s: cannot use float64 as a component reference"},
	}
	for _, path := range paths {
		class := leafClass(t, base, path, leaves[path])
		for _, v := range probes {
			fromDoc, decErr := decodeWith(t, base, path, v)
			got := base
			applyErr := got.Apply(map[string]any{path: v})
			if (decErr == nil) != (applyErr == nil) {
				t.Errorf("%s = %#v: decode error %v, Apply error %v", path, v, decErr, applyErr)
				continue
			}
			if applyErr == nil && !reflect.DeepEqual(got, fromDoc) {
				t.Errorf("%s = %#v: Apply gives\n%+v\ndecoding gives\n%+v", path, v, got, fromDoc)
			}
			if format, ok := wantErr[class][fmt.Sprint(v)]; ok {
				want := fmt.Sprintf(format, fmt.Sprintf("set %q", path))
				if applyErr == nil || applyErr.Error() != want {
					t.Errorf("%s = %#v: error %v, want %q", path, v, applyErr, want)
				}
			}
		}
		if class != "ref" {
			continue
		}

		// slot.param: one parameter of the component at a reference slot.
		param := path + ".k"
		fromDoc, err := decodeWith(t, base, path, map[string]any{"name": leaves[path], "params": map[string]any{"k": 5.0}})
		if err != nil {
			t.Fatal(err)
		}
		got := base
		if err := got.Apply(map[string]any{param: 5.0}); err != nil {
			t.Errorf("%s: %v", param, err)
		} else if !reflect.DeepEqual(got, fromDoc) {
			t.Errorf("%s: Apply gives\n%+v\ndecoding gives\n%+v", param, got, fromDoc)
		}
		var empty Config
		want := fmt.Sprintf("set %q: no named component at %q to parameterize", param, path)
		if err := empty.Apply(map[string]any{param: 5.0}); err == nil || err.Error() != want {
			t.Errorf("%s on an empty slot: error %v, want %q", param, err, want)
		}
		for _, deeper := range []string{path + ".", path + ".k.j"} {
			assertUnknownPath(t, deeper)
		}
	}
	for _, p := range []string{"", "geometry", "gc", "nonsense", "nonsense.param", "gc.greediness.k", "geometry.channels.k"} {
		assertUnknownPath(t, p)
	}
}

func assertUnknownPath(t *testing.T, path string) {
	t.Helper()
	cfg := fullConfig()
	err := cfg.Apply(map[string]any{path: 1.0})
	var ufe *UnknownFieldError
	want := fmt.Sprintf("spec: variant set: unknown field %q", path)
	if !errors.As(err, &ufe) || err.Error() != want {
		t.Errorf("path %q: error %v, want %q", path, err, want)
	}
}

// TestFaultSlotOverrides: the fault slot is a pointer, absent by default.
// "none" maps back to the absent field; a fault.<param> override on a
// configuration without a fault model fails and leaves the slot absent (it
// once left an empty reference behind, which encodes as "fault": ""); and a
// parameter override on a shallow copy never reaches the original's
// reference.
func TestFaultSlotOverrides(t *testing.T) {
	cfg := fullConfig()
	if err := cfg.Apply(map[string]any{"fault": "none"}); err != nil {
		t.Fatal(err)
	}
	if cfg.Fault != nil {
		t.Fatalf("fault = %+v after \"none\", want nil", cfg.Fault)
	}

	var empty Config
	if err := empty.Apply(map[string]any{"fault.program_fail": 0.1}); err == nil {
		t.Fatal("parameterizing an absent fault model succeeded")
	}
	if empty.Fault != nil {
		t.Fatalf("failed override left fault = %+v, want nil", empty.Fault)
	}

	base := fullConfig()
	cfg = base
	if err := cfg.Apply(map[string]any{"fault.program_fail": 0.1}); err != nil {
		t.Fatal(err)
	}
	if base.Fault.Params != nil || cfg.Fault == base.Fault {
		t.Fatalf("override reached the shared reference: base %+v", base.Fault)
	}
	if got := cfg.Fault.Params["program_fail"]; got != 0.1 {
		t.Fatalf("fault.program_fail = %v, want 0.1", got)
	}
}
