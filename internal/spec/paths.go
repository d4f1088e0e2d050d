package spec

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
)

var refType, refPtrType = reflect.TypeFor[Ref](), reflect.TypeFor[*Ref]()

// configPaths is the only list of settable paths, read off Config's json
// tags once: every leaf field is a path, and a Ref or *Ref is a leaf. Keys
// are dotted JSON names (the variant `set` paths); each field's Index leads
// from Config to the leaf. A new Config field is settable with no Apply
// code, and documented in SPEC.md.
var configPaths = sync.OnceValue(func() map[string]reflect.StructField {
	paths := map[string]reflect.StructField{}
	var walk func(typ reflect.Type, prefix string, index []int)
	walk = func(typ reflect.Type, prefix string, index []int) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			f.Index = append(slices.Clip(index), i)
			if f.Type.Kind() == reflect.Struct && f.Type != refType {
				walk(f.Type, prefix+name+".", f.Index)
			} else {
				paths[prefix+name] = f
			}
		}
	}
	walk(reflect.TypeFor[Config](), "", nil)
	return paths
})

// Apply writes a variant-style override set into the configuration. Paths
// are applied in sorted order (Go maps are unordered) so the result is
// deterministic even if two paths overlap. Overrides replace whole values
// (a component reference swaps the component); they never mutate maps
// shared with another Config, so applying to a shallow copy is safe.
func (c *Config) Apply(set map[string]any) error {
	for _, p := range sortedKeys(set) {
		if err := c.set(p, set[p]); err != nil {
			return err
		}
	}
	return nil
}

// set writes one override. The path is a leaf of configPaths or a
// "slot.param" path — one parameter of the component currently referenced
// at a slot ("policy.internal", "mapping.cmt", "gc.policy.<param>"); whether
// the component accepts the parameter is checked at resolve time, where the
// registry declaration is in hand. Any other path is an *UnknownFieldError.
// A failed override leaves the configuration as it was.
func (c *Config) set(path string, val any) error {
	paths := configPaths()
	dot := strings.LastIndexByte(path, '.')
	slot, param := path[:max(dot, 0)], path[dot+1:]
	var err error
	if p, ok := paths[path]; ok {
		err = setLeaf(c.field(p), val)
	} else if p, ok := paths[slot]; ok && param != "" && (p.Type == refType || p.Type == refPtrType) {
		err = setParam(c.field(p), slot, param, val)
	} else {
		return &UnknownFieldError{Context: "variant set", Field: path}
	}
	if err != nil {
		return fmt.Errorf("set %q: %w", path, err)
	}
	return nil
}

// field returns the address of a path's field in c.
func (c *Config) field(f reflect.StructField) any {
	return reflect.ValueOf(c).Elem().FieldByIndex(f.Index).Addr().Interface()
}

// setLeaf converts val to the type dst points to and stores it.
func setLeaf(dst, val any) error {
	switch dst := dst.(type) {
	case *int:
		n, err := coerceInt(val)
		return assign(dst, int(n), err)
	case *int64:
		n, err := coerceInt(val)
		return assign(dst, n, err)
	case *uint64:
		n, err := coerceInt(val)
		if err == nil && n < 0 {
			err = fmt.Errorf("%d is negative", n)
		}
		return assign(dst, uint64(n), err)
	case *float64:
		f, err := coerceFloat(val)
		return assign(dst, f, err)
	case *bool:
		b, ok := val.(bool)
		if !ok {
			return fmt.Errorf("cannot use %T as a bool", val)
		}
		*dst = b
		return nil
	case *Duration:
		d, err := coerceDuration(val)
		return assign(dst, Duration(d), err)
	case *Ref:
		r, err := coerceRef(val)
		return assign(dst, r, err)
	case **Ref:
		// An optional slot (fault) is a pointer so its absence serializes as
		// an absent field; "none" maps back to nil for the same reason.
		r, err := coerceRef(val)
		if r.None() || r.Name == "none" {
			return assign(dst, nil, err)
		}
		return assign(dst, &r, err)
	}
	return fmt.Errorf("no setter for %T", dst)
}

// assign stores v unless err is set: a failed override leaves its slot as
// it was.
func assign[T any](dst *T, v T, err error) error {
	if err == nil {
		*dst = v
	}
	return err
}

// setParam overrides one parameter of the component referenced at a slot.
// It writes a fresh reference with a fresh params map: neither is ever
// shared with another Config, since overrides apply to shallow copies.
func setParam(slot any, name, param string, val any) error {
	opt, isOpt := slot.(**Ref)
	ref, _ := slot.(*Ref)
	if isOpt {
		ref = *opt
	}
	if ref == nil || ref.None() {
		return fmt.Errorf("no named component at %q to parameterize", name)
	}
	r := Ref{Name: ref.Name, Params: make(map[string]any, len(ref.Params)+1)}
	maps.Copy(r.Params, ref.Params)
	r.Params[param] = val
	if isOpt {
		*opt = &r
	} else {
		*ref = r
	}
	return nil
}
