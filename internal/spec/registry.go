// Package spec makes EagleTree experiments data instead of code: it defines
// a named registry of every pluggable component in the stack (SSD and OS
// scheduling policies, write allocators, GC victim policies, wear-leveling
// modes, hot/cold detectors, mapping schemes, flash timings and workload
// thread types), a serializable mirror of core.Config built from named
// component references, and a versioned JSON codec for whole experiments —
// base configuration, device preparation, workload graph and variant grid.
//
// Two consequences follow. First, new points in the design space need a spec
// file, not a recompile: the CLIs load and run documents that reference
// components by name. Second, configurations gain a canonical encoding —
// every registered component can be described back into its name and typed
// parameters — which the experiment layer uses as the snapshot-cache key for
// prepared device states. Unknown components are a typed error there, never
// a silent key collision.
//
//eagletree:canonical
//eagletree:typederrors
package spec

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Kind partitions the registry by the slot a component plugs into.
type Kind string

const (
	// KindPolicy is the SSD controller's IO scheduling policy (sched.Policy).
	KindPolicy Kind = "policy"
	// KindAllocator is the write allocator (sched.Allocator).
	KindAllocator Kind = "alloc"
	// KindGCPolicy is the GC victim policy (gc.VictimPolicy).
	KindGCPolicy Kind = "gc"
	// KindWL is the wear-leveling mode (wl.Config preset).
	KindWL Kind = "wl"
	// KindDetector is the hot/cold detector (hotcold.Detector).
	KindDetector Kind = "detector"
	// KindMapping is the FTL mapping scheme.
	KindMapping Kind = "mapping"
	// KindTiming is the flash timing set.
	KindTiming Kind = "timing"
	// KindFault is the runtime fault-injection model (fault.Model).
	KindFault Kind = "fault"
	// KindOSPolicy is the OS scheduler policy (osched.Policy).
	KindOSPolicy Kind = "os"
	// KindThread is a workload thread type (workload.Thread).
	KindThread Kind = "thread"
)

// ParamType is the declared type of one component parameter.
type ParamType int

const (
	// TInt is a plain integer.
	TInt ParamType = iota
	// TExpr is an integer that may also be written as an expression string
	// over the workload environment (n, ppb, qd, f, i).
	TExpr
	// TFloat is a floating-point number.
	TFloat
	// TBool is a boolean.
	TBool
	// TString is an enumerated or free string.
	TString
	// TDuration is a virtual-time duration, written as "2ms"-style strings
	// (or a plain number of nanoseconds).
	TDuration
	// TInts is a list of integers.
	TInts
	// TComponent is a nested component reference of the declared Kind.
	TComponent
)

func (t ParamType) String() string {
	switch t {
	case TInt:
		return "int"
	case TExpr:
		return "int|expr"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	case TString:
		return "string"
	case TDuration:
		return "duration"
	case TInts:
		return "[]int"
	case TComponent:
		return "component"
	default:
		return fmt.Sprintf("ParamType(%d)", int(t))
	}
}

// Param declares one typed parameter of a component.
type Param struct {
	// Name is the JSON field name (lower snake case).
	Name string
	// Type is the accepted value type.
	Type ParamType
	// Of is the nested component kind when Type is TComponent.
	Of Kind
	// Doc is a one-line description for generated documentation.
	Doc string
}

// Component is one registered, named factory: it can build its component
// from typed parameters and describe a live instance back into them. The
// pair is what makes configurations serializable and canonically keyable.
type Component struct {
	Kind Kind
	Name string
	// Doc is a one-line description for -list style output.
	Doc string
	// Params declares the accepted parameters; any other field in a
	// reference is an *UnknownFieldError.
	Params []Param
	// Make builds the component. Read parameters through the typed Params
	// accessors; accumulated access errors fail the build.
	Make func(p *Params) (any, error)
	// Describe reverse-maps a live value into its parameter set, reporting
	// ok=false when the value is not this component's type. Components that
	// cannot appear inside a core.Config (workload threads) may leave it
	// nil.
	Describe func(v any) (map[string]any, bool)
}

func (c *Component) param(name string) (Param, bool) {
	for _, p := range c.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// UnknownComponentError reports a reference to a name the registry does not
// hold for that kind.
type UnknownComponentError struct {
	Kind Kind
	Name string
}

func (e *UnknownComponentError) Error() string {
	return fmt.Sprintf("spec: unknown %s component %q (have %v)", e.Kind, e.Name, Names(e.Kind))
}

// UnknownFieldError reports a parameter (or document field) no declaration
// accepts.
type UnknownFieldError struct {
	// Context names where the field appeared ("policy \"priority\"",
	// "document").
	Context string
	Field   string
}

func (e *UnknownFieldError) Error() string {
	return fmt.Sprintf("spec: %s: unknown field %q", e.Context, e.Field)
}

// ParamError reports a parameter present but unusable (wrong type, bad
// expression, out-of-range value).
type ParamError struct {
	Context string
	Param   string
	Err     error
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("spec: %s: parameter %q: %v", e.Context, e.Param, e.Err)
}

func (e *ParamError) Unwrap() error { return e.Err }

// ComponentTypeError reports a registered component whose factory built a
// value that does not fit the slot its kind plugs into — a "policy" that does
// not implement sched.Policy, say. Anyone can register components, so this is
// an error of the document's environment, not a bug to panic on.
type ComponentTypeError struct {
	Kind Kind
	Name string
	// Want is the Go type the slot holds; Got is what the factory returned.
	Want string
	Got  string
}

func (e *ComponentTypeError) Error() string {
	return fmt.Sprintf("spec: %s component %q builds a %s, which is not a %s", e.Kind, e.Name, e.Got, e.Want)
}

var (
	regMu    sync.RWMutex
	registry = map[Kind]map[string]*Component{}
	regOrder = map[Kind][]string{}
)

// Register adds a component to the registry. Registering a (kind, name)
// twice panics: names are the API surface of spec files and must be unique.
// Packages register their components from init, so anything importing spec
// sees the full catalogue.
func Register(c Component) {
	if c.Name == "" || c.Kind == "" {
		panic("spec: Register needs a kind and a name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	byName := registry[c.Kind]
	if byName == nil {
		byName = map[string]*Component{}
		registry[c.Kind] = byName
	}
	if _, dup := byName[c.Name]; dup {
		panic(fmt.Sprintf("spec: duplicate %s component %q", c.Kind, c.Name))
	}
	cc := c
	byName[c.Name] = &cc
	regOrder[c.Kind] = append(regOrder[c.Kind], c.Name)
}

// Lookup returns the registered component, or an *UnknownComponentError.
func Lookup(kind Kind, name string) (*Component, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	c := registry[kind][name]
	if c == nil {
		return nil, &UnknownComponentError{Kind: kind, Name: name}
	}
	return c, nil
}

// Names returns the registered names of one kind, sorted.
func Names(kind Kind) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := append([]string(nil), regOrder[kind]...)
	sort.Strings(out)
	return out
}

// Catalogue returns the registered components of one kind in registration
// order, for documentation generators.
func Catalogue(kind Kind) []*Component {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Component, 0, len(regOrder[kind]))
	for _, name := range regOrder[kind] {
		out = append(out, registry[kind][name])
	}
	return out
}

// Make resolves a reference into a live component: the factory is looked up
// by name, every provided parameter is checked against the declaration
// (unknown fields and type mismatches are typed errors), and the factory
// builds the value.
func Make(kind Kind, ref Ref, env Env) (any, error) {
	c, err := Lookup(kind, ref.Name)
	if err != nil {
		return nil, err
	}
	p := &Params{comp: c, vals: ref.Params, env: env}
	for _, field := range sortedKeys(ref.Params) {
		if _, ok := c.param(field); !ok {
			return nil, &UnknownFieldError{Context: p.context(), Field: field}
		}
	}
	v, err := c.Make(p)
	if err != nil {
		return nil, err
	}
	if p.err != nil {
		return nil, p.err
	}
	return v, nil
}

// makeAs is Make for a slot of Go type T: a value that is not a T is a
// *ComponentTypeError. A factory may build nil (the "none" fault model), which
// is T's zero value.
func makeAs[T any](kind Kind, ref Ref, env Env) (T, error) {
	var zero T
	v, err := Make(kind, ref, env)
	if err != nil || v == nil {
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		return zero, &ComponentTypeError{Kind: kind, Name: ref.Name,
			Want: reflect.TypeOf(&zero).Elem().String(), Got: fmt.Sprintf("%T", v)}
	}
	return t, nil
}

// ValidateRef checks a reference without building it: the name must be
// registered, every parameter declared, and every value coercible to its
// declared type. Factories with side effects (file-reading replay threads,
// trace-capturing workloads) are never invoked, which makes this the right
// gate for load-time validation.
func ValidateRef(kind Kind, ref Ref, env Env) error {
	c, err := Lookup(kind, ref.Name)
	if err != nil {
		return err
	}
	ctx := fmt.Sprintf("%s %q", c.Kind, c.Name)
	for _, field := range sortedKeys(ref.Params) {
		val := ref.Params[field]
		par, ok := c.param(field)
		if !ok {
			return &UnknownFieldError{Context: ctx, Field: field}
		}
		if err := checkValue(ctx, par, val, env); err != nil {
			return err
		}
	}
	return nil
}

func checkValue(ctx string, par Param, val any, env Env) error {
	perr := func(err error) error {
		return &ParamError{Context: ctx, Param: par.Name, Err: err}
	}
	switch par.Type {
	case TInt:
		if _, err := coerceInt(val); err != nil {
			return perr(err)
		}
	case TExpr:
		if s, ok := val.(string); ok {
			if _, err := Eval(s, env); err != nil {
				return perr(err)
			}
		} else if _, err := coerceInt(val); err != nil {
			return perr(err)
		}
	case TFloat:
		if _, err := coerceFloat(val); err != nil {
			return perr(err)
		}
	case TBool:
		if _, ok := val.(bool); !ok {
			return perr(fmt.Errorf("cannot use %T as a bool", val))
		}
	case TString:
		if _, ok := val.(string); !ok {
			return perr(fmt.Errorf("cannot use %T as a string", val))
		}
	case TDuration:
		if _, err := coerceDuration(val); err != nil {
			return perr(err)
		}
	case TInts:
		switch t := val.(type) {
		case []int, []float64:
		case []any:
			for _, e := range t {
				if _, err := coerceInt(e); err != nil {
					return perr(err)
				}
			}
		default:
			return perr(fmt.Errorf("cannot use %T as an integer list", val))
		}
	case TComponent:
		if val == nil {
			return nil
		}
		ref, err := coerceRef(val)
		if err != nil {
			return perr(err)
		}
		return ValidateRef(par.Of, ref, env)
	}
	return nil
}

// Describe reverse-maps a live component value into a reference. Every
// configurable knob of a registered component — including ones held in
// unexported state, like the multi-bloom detector's effective configuration
// — round-trips through the returned parameters; a value of an unregistered
// type is an *UnknownComponentError (with an empty name), never a lossy
// answer. That guarantee is what makes Describe safe to build cache keys on.
func Describe(kind Kind, v any) (Ref, error) {
	// Iterate over a snapshot: a component's Describe may itself call
	// Describe (the deadline policy describes its nested fallback), and a
	// recursive RLock deadlocks against any concurrently pending writer.
	for _, c := range Catalogue(kind) {
		if c.Describe == nil {
			continue
		}
		if params, ok := c.Describe(v); ok {
			return Ref{Name: c.Name, Params: params}, nil
		}
	}
	return Ref{}, &UnknownComponentError{Kind: kind, Name: fmt.Sprintf("%T", v)}
}
