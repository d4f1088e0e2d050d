package spec

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"eagletree/internal/sim"
)

// sortedKeys returns the map's keys in sorted order. Validation walks
// parameter maps through this so the first-reported error is deterministic
// regardless of Go's randomized map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //lint:ordered keys are sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Ref names a registered component, optionally with parameters. In JSON a
// bare string is shorthand for a parameterless reference:
//
//	"policy": "fifo"
//	"policy": {"name": "priority", "params": {"prefer": "reads"}}
type Ref struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

// NamedRef returns a parameterless reference.
func NamedRef(name string) Ref { return Ref{Name: name} }

// ParamRef returns a reference with parameters.
func ParamRef(name string, params map[string]any) Ref { return Ref{Name: name, Params: params} }

// None reports whether the reference is unset (component left to the
// stack's runtime default).
func (r Ref) None() bool { return r.Name == "" }

// MarshalJSON writes the shorthand string form when there are no parameters.
func (r Ref) MarshalJSON() ([]byte, error) {
	if len(r.Params) == 0 {
		return json.Marshal(r.Name)
	}
	type plain Ref
	return json.Marshal(plain(r))
}

// UnmarshalJSON accepts both the string shorthand and the object form.
func (r *Ref) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &r.Name)
	}
	type plain Ref
	return json.Unmarshal(data, (*plain)(r))
}

// coerceRef converts a raw parameter value (string shorthand, decoded JSON
// object, or an authored Ref) into a Ref.
func coerceRef(v any) (Ref, error) {
	switch t := v.(type) {
	case Ref:
		return t, nil
	case string:
		return Ref{Name: t}, nil
	case map[string]any:
		name, _ := t["name"].(string)
		if name == "" {
			return Ref{}, fmt.Errorf("component reference needs a %q field", "name")
		}
		for _, k := range sortedKeys(t) {
			if k != "name" && k != "params" {
				return Ref{}, fmt.Errorf("component reference has unknown field %q", k)
			}
		}
		params, _ := t["params"].(map[string]any)
		return Ref{Name: name, Params: params}, nil
	default:
		return Ref{}, fmt.Errorf("cannot use %T as a component reference", v)
	}
}

// Duration is sim.Duration with a human-readable JSON form: it marshals as
// a Go duration string ("2ms") and unmarshals from either that form or a
// plain number of nanoseconds.
type Duration sim.Duration

// D converts to the simulator's duration type.
func (d Duration) D() sim.Duration { return sim.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	v, err := coerceDuration(raw)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

func coerceDuration(v any) (sim.Duration, error) {
	switch t := v.(type) {
	case string:
		td, err := time.ParseDuration(t)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q: %v", t, err)
		}
		return sim.Duration(td.Nanoseconds()), nil
	case float64:
		return sim.Duration(int64(t)), nil
	case int:
		return sim.Duration(t), nil
	case int64:
		return sim.Duration(t), nil
	case Duration:
		return t.D(), nil
	case sim.Duration:
		return t, nil
	case time.Duration:
		return sim.Duration(t.Nanoseconds()), nil
	default:
		return 0, fmt.Errorf("cannot use %T as a duration", v)
	}
}

// durString renders a duration in the canonical parameter form.
func durString(d sim.Duration) string { return time.Duration(d).String() }

// Params is a component's typed view of its raw parameter map. Accessors
// coerce JSON-decoded values (or Go-authored literals) to the declared type
// and record the first failure; Make surfaces it as a *ParamError.
type Params struct {
	comp *Component
	vals map[string]any
	env  Env
	err  error
}

func (p *Params) context() string {
	return fmt.Sprintf("%s %q", p.comp.Kind, p.comp.Name)
}

func (p *Params) fail(name string, err error) {
	if p.err == nil {
		p.err = &ParamError{Context: p.context(), Param: name, Err: err}
	}
}

func (p *Params) raw(name string) (any, bool) {
	v, ok := p.vals[name]
	return v, ok
}

// Env returns the evaluation environment the component is being built in.
func (p *Params) Env() Env { return p.env }

// Int reads an integer parameter.
func (p *Params) Int(name string, def int) int {
	return int(p.Int64(name, int64(def)))
}

// Int64 reads an integer parameter. Declared TExpr parameters additionally
// accept expression strings evaluated against the environment.
func (p *Params) Int64(name string, def int64) int64 {
	v, ok := p.raw(name)
	if !ok {
		return def
	}
	switch t := v.(type) {
	case float64:
		if t != float64(int64(t)) {
			p.fail(name, fmt.Errorf("%v is not an integer", t))
			return def
		}
		return int64(t)
	case int:
		return int64(t)
	case int64:
		return t
	case string:
		n, err := Eval(t, p.env)
		if err != nil {
			p.fail(name, err)
			return def
		}
		return n
	default:
		p.fail(name, fmt.Errorf("cannot use %T as an integer", v))
		return def
	}
}

// Uint64 reads a non-negative integer parameter.
func (p *Params) Uint64(name string, def uint64) uint64 {
	v := p.Int64(name, int64(def))
	if v < 0 {
		p.fail(name, fmt.Errorf("%d is negative", v))
		return def
	}
	return uint64(v)
}

// Float reads a floating-point parameter.
func (p *Params) Float(name string, def float64) float64 {
	v, ok := p.raw(name)
	if !ok {
		return def
	}
	switch t := v.(type) {
	case float64:
		return t
	case int:
		return float64(t)
	case int64:
		return float64(t)
	default:
		p.fail(name, fmt.Errorf("cannot use %T as a float", v))
		return def
	}
}

// Bool reads a boolean parameter.
func (p *Params) Bool(name string, def bool) bool {
	v, ok := p.raw(name)
	if !ok {
		return def
	}
	b, ok := v.(bool)
	if !ok {
		p.fail(name, fmt.Errorf("cannot use %T as a bool", v))
		return def
	}
	return b
}

// Str reads a string parameter.
func (p *Params) Str(name, def string) string {
	v, ok := p.raw(name)
	if !ok {
		return def
	}
	s, ok := v.(string)
	if !ok {
		p.fail(name, fmt.Errorf("cannot use %T as a string", v))
		return def
	}
	return s
}

// Enum reads a string parameter restricted to the allowed values.
func (p *Params) Enum(name, def string, allowed ...string) string {
	s := p.Str(name, def)
	for _, a := range allowed {
		if s == a {
			return s
		}
	}
	p.fail(name, fmt.Errorf("%q is not one of %v", s, allowed))
	return def
}

// Dur reads a duration parameter ("2ms" or nanoseconds).
func (p *Params) Dur(name string, def sim.Duration) sim.Duration {
	v, ok := p.raw(name)
	if !ok {
		return def
	}
	d, err := coerceDuration(v)
	if err != nil {
		p.fail(name, err)
		return def
	}
	return d
}

// Ints reads an integer-list parameter.
func (p *Params) Ints(name string) []int {
	v, ok := p.raw(name)
	if !ok {
		return nil
	}
	switch t := v.(type) {
	case []int:
		return append([]int(nil), t...)
	case []any:
		out := make([]int, 0, len(t))
		for _, e := range t {
			f, ok := e.(float64)
			if !ok || f != float64(int64(f)) {
				p.fail(name, fmt.Errorf("element %v is not an integer", e))
				return nil
			}
			out = append(out, int(f))
		}
		return out
	case []float64:
		out := make([]int, 0, len(t))
		for _, f := range t {
			out = append(out, int(f))
		}
		return out
	default:
		p.fail(name, fmt.Errorf("cannot use %T as an integer list", v))
		return nil
	}
}

// Component reads a nested component parameter of the given kind, building
// it through the registry. Absent (or null) means nil.
func (p *Params) Component(name string, kind Kind) any {
	return componentParam[any](p, name, kind)
}

// componentParam is Component for a slot of Go type T; a nested component of
// another type fails the build with a *ComponentTypeError.
func componentParam[T any](p *Params, name string, kind Kind) T {
	var zero T
	v, ok := p.raw(name)
	if !ok || v == nil {
		return zero
	}
	ref, err := coerceRef(v)
	if err != nil {
		p.fail(name, err)
		return zero
	}
	c, err := makeAs[T](kind, ref, p.env)
	if err != nil {
		p.fail(name, err)
		return zero
	}
	return c
}
