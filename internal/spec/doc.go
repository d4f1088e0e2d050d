package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"eagletree/internal/workload"
)

// Version is the spec document format version this package reads and
// writes. Documents carrying any other version are a *VersionError.
const Version = 1

// VersionError reports a document written in a format version this build
// does not speak.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("spec: document version %d, this build reads version %d", e.Got, e.Want)
}

// ErrTruncated reports a document that ends mid-value — a partial download
// or a torn write, distinguished from a well-formed document with bad
// content.
var ErrTruncated = errors.New("spec: truncated document")

// ErrExperiment wraps every structural validation failure of an Experiment
// (missing name, empty grid axes, conflicting variant declarations, ...).
var ErrExperiment = errors.New("spec: invalid experiment")

// Experiment is a complete, serializable experiment: the base
// configuration, the device preparation, the measured workload, and the
// variant grid — everything the runner needs, with no compiled code in the
// loop. The suite's E1–E14 and user experiments alike are JSON documents
// decoding into it.
type Experiment struct {
	// Version is the format version; Encode stamps it, Decode checks it.
	Version int `json:"version"`
	// Name identifies the experiment in reports ("E3-gc-greediness").
	Name string `json:"name"`
	// Doc is the paper hook: one line on what the experiment shows.
	Doc string `json:"doc,omitempty"`
	// Varies names the swept dimension for index listings.
	Varies string `json:"varies,omitempty"`
	// Factor is the workload scale factor, exposed to expressions as f
	// (0 reads as 1).
	Factor int64 `json:"factor,omitempty"`
	// Base is the configuration shared by all variants.
	Base Config `json:"base"`
	// Prep declares device preparation (sequential fill + random aging).
	Prep *Prep `json:"prepare,omitempty"`
	// Workload is the measured thread list.
	Workload []Thread `json:"workload"`
	// Variants is the sweep list; empty means one unmodified run (unless
	// Grid declares the sweep instead).
	Variants []Variant `json:"variants,omitempty"`
	// Grid declares the sweep as a cross-product of axes instead of an
	// explicit variant list: every combination of one variant per axis
	// becomes one run, labels joined with "," and override sets merged.
	// Mutually exclusive with Variants; expanded by ExpandVariants.
	Grid []Axis `json:"grid,omitempty"`
	// SeriesBucket, when positive, records a completion time series per
	// variant with this bucket width.
	SeriesBucket Duration `json:"series_bucket,omitempty"`
}

// Axis is one dimension of a grid sweep: a list of variant fragments, each
// contributing its label and configuration overrides to every combination it
// participates in. Axis fragments may only set configuration paths —
// preparation and workload overrides do not compose across axes and are
// rejected at expansion.
type Axis struct {
	// Name documents the swept dimension ("prefer", "greediness").
	Name string `json:"name,omitempty"`
	// Variants are the axis's points.
	Variants []Variant `json:"variants"`
}

// ExpandVariants resolves the experiment's effective variant list: the
// explicit Variants, or the cross-product of the Grid axes (first axis
// outermost, so the last axis varies fastest). Combination labels join the
// fragments' labels with ","; their override sets merge, and two axes
// setting the same path is an error — axes must be independent dimensions.
func (e Experiment) ExpandVariants() ([]Variant, error) {
	if len(e.Grid) == 0 {
		return e.Variants, nil
	}
	if len(e.Variants) > 0 {
		return nil, fmt.Errorf("%w: %q declares both variants and grid; use one", ErrExperiment, e.Name)
	}
	combos := []Variant{{}}
	for ai, axis := range e.Grid {
		axisName := axis.Name
		if axisName == "" {
			axisName = fmt.Sprintf("#%d", ai)
		}
		if len(axis.Variants) == 0 {
			return nil, fmt.Errorf("%w: %q: grid axis %s has no variants", ErrExperiment, e.Name, axisName)
		}
		for _, f := range axis.Variants {
			if f.Prep != nil || len(f.Workload) > 0 {
				return nil, fmt.Errorf("%w: %q: grid axis %s variant %q overrides preparation or workload; axes may only set configuration paths",
					ErrExperiment, e.Name, axisName, f.Label)
			}
		}
		next := make([]Variant, 0, len(combos)*len(axis.Variants))
		for _, base := range combos {
			for _, f := range axis.Variants {
				v, err := mergeFragment(base, f)
				if err != nil {
					return nil, fmt.Errorf("spec: experiment %q: grid axis %s variant %q: %w", e.Name, axisName, f.Label, err)
				}
				next = append(next, v)
			}
		}
		combos = next
	}
	return combos, nil
}

// mergeFragment folds one axis fragment into an accumulated combination.
func mergeFragment(base, frag Variant) (Variant, error) {
	out := Variant{Label: base.Label, X: base.X}
	switch {
	case out.Label == "":
		out.Label = frag.Label
	case frag.Label != "":
		out.Label += "," + frag.Label
	}
	if frag.X != 0 {
		// Like Set paths, the x coordinate must come from exactly one axis —
		// silently keeping one of two values would mislabel every chart.
		if out.X != 0 {
			return out, fmt.Errorf("x coordinate is set by more than one axis")
		}
		out.X = frag.X
	}
	if len(base.Set)+len(frag.Set) > 0 {
		out.Set = make(map[string]any, len(base.Set)+len(frag.Set))
		for k, v := range base.Set { //lint:ordered writes land in a keyed map
			out.Set[k] = v
		}
		//lint:ordered dup check is against base.Set only; frag keys are unique
		for k, v := range frag.Set {
			if _, dup := out.Set[k]; dup {
				return out, fmt.Errorf("path %q is set by more than one axis", k)
			}
			out.Set[k] = v
		}
	}
	return out, nil
}

// Prep mirrors the experiment layer's declarative device preparation.
type Prep struct {
	// FillDepth is the IO depth of the sequential fill over the whole
	// logical space; zero disables preparation.
	FillDepth int `json:"fill_depth,omitempty"`
	// AgePasses is how many random-overwrite passes follow the fill.
	AgePasses int64 `json:"age_passes,omitempty"`
	// AgeDepth is the IO depth of the aging passes; zero means FillDepth.
	AgeDepth int `json:"age_depth,omitempty"`
}

// Thread is one measured workload thread: a registered thread type plus its
// parameters. Integer parameters may be expression strings over n (logical
// pages), ppb (pages per block), qd (queue depth), f (scale factor) and i
// (replica index).
type Thread struct {
	Type   string         `json:"type"`
	Params map[string]any `json:"params,omitempty"`
	// Repeat registers the thread this many times (expression; 0 = 1); each
	// replica resolves its parameters with its own index i.
	Repeat any `json:"repeat,omitempty"`
}

// Variant is one point of the sweep grid: a label, an optional numeric x
// coordinate, and a set of configuration overrides addressed by path.
type Variant struct {
	Label string  `json:"label"`
	X     float64 `json:"x,omitempty"`
	// Set maps configuration paths ("gc.greediness", "policy",
	// "geometry.channels") to override values; component paths take a
	// reference (string shorthand or {"name","params"}).
	Set map[string]any `json:"set,omitempty"`
	// Prep overrides the experiment's preparation for this variant; a
	// present-but-zero value disables preparation (fresh device).
	Prep *Prep `json:"prepare,omitempty"`
	// Workload replaces the experiment's measured thread list.
	Workload []Thread `json:"workload,omitempty"`
}

// Encode renders the experiment as indented, versioned JSON — the canonical
// on-disk form (golden spec files are byte-compared against it).
func Encode(e Experiment) ([]byte, error) {
	e.Version = Version
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: encode: %w", err)
	}
	return append(data, '\n'), nil
}

// Decode parses a spec document, strictly: unknown document fields, wrong
// versions and truncated input are typed errors. Component names and
// parameters are validated later, at resolve time, where the registry and
// environment are in hand.
func Decode(data []byte) (Experiment, error) {
	var e Experiment
	// Version first, leniently: a version-1 reader must not demand that a
	// version-7 document have today's shape before refusing it.
	var header struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &header); err != nil {
		return e, decodeErr(err)
	}
	if header.Version != Version {
		return e, &VersionError{Got: header.Version, Want: Version}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return e, decodeErr(err)
	}
	return e, nil
}

// decodeErr maps encoding/json failures onto the codec's typed errors.
func decodeErr(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	var syn *json.SyntaxError
	if errors.As(err, &syn) && strings.Contains(syn.Error(), "unexpected end") {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if field, ok := strings.CutPrefix(err.Error(), `json: unknown field `); ok {
		return &UnknownFieldError{Context: "document", Field: strings.Trim(field, `"`)}
	}
	return fmt.Errorf("spec: decode: %w", err)
}

// ReadFile loads and decodes a spec document.
func ReadFile(path string) (Experiment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Experiment{}, err
	}
	e, err := Decode(data)
	if err != nil {
		return e, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// WriteFile encodes and writes a spec document.
func WriteFile(path string, e Experiment) error {
	data, err := Encode(e)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ConfigFor returns the experiment's configuration with one variant's
// overrides applied. The base is copied; the returned Config shares no
// mutable state with it.
func (e Experiment) ConfigFor(v Variant) (Config, error) {
	cfg := e.Base
	if err := cfg.Apply(v.Set); err != nil {
		return cfg, fmt.Errorf("spec: variant %q: %w", v.Label, err)
	}
	return cfg, nil
}

func coerceInt(v any) (int64, error) {
	switch t := v.(type) {
	case float64:
		if t != float64(int64(t)) {
			return 0, fmt.Errorf("%v is not an integer", t)
		}
		return int64(t), nil
	case int:
		return int64(t), nil
	case int64:
		return t, nil
	case uint64:
		return int64(t), nil
	default:
		return 0, fmt.Errorf("cannot use %T as an integer", v)
	}
}

func coerceFloat(v any) (float64, error) {
	switch t := v.(type) {
	case float64:
		return t, nil
	case int:
		return float64(t), nil
	case int64:
		return float64(t), nil
	default:
		return 0, fmt.Errorf("cannot use %T as a float", v)
	}
}

// MakeThread resolves one thread declaration into a live workload thread.
func MakeThread(t Thread, env Env) (workload.Thread, error) {
	return makeAs[workload.Thread](KindThread, Ref{Name: t.Type, Params: t.Params}, env)
}

// RepeatCount evaluates a thread's replica count (0 or absent = 1).
func (t Thread) RepeatCount(env Env) (int, error) {
	if t.Repeat == nil {
		return 1, nil
	}
	var n int64
	switch r := t.Repeat.(type) {
	case string:
		var err error
		n, err = Eval(r, env)
		if err != nil {
			return 0, err
		}
	default:
		var err error
		n, err = coerceInt(r)
		if err != nil {
			return 0, fmt.Errorf("spec: thread %q repeat: %w", t.Type, err)
		}
	}
	if n <= 0 {
		n = 1
	}
	return int(n), nil
}

// Validate resolves everything resolvable without a live stack: the base
// configuration, every variant's configuration, and every thread type and
// parameter set (against a placeholder environment). It is the cheap,
// typed-error gate the CLIs run before committing to a simulation.
func (e Experiment) Validate() error {
	if e.Name == "" {
		return fmt.Errorf("%w: experiment has no name", ErrExperiment)
	}
	if _, err := e.Base.Resolve(); err != nil {
		return fmt.Errorf("spec: base: %w", err)
	}
	env := Env{N: 1 << 16, PPB: 32, QD: 32, F: e.Factor}
	check := func(where string, threads []Thread) error {
		for _, t := range threads {
			if _, err := t.RepeatCount(env); err != nil {
				return fmt.Errorf("spec: %s: %w", where, err)
			}
			if err := ValidateRef(KindThread, Ref{Name: t.Type, Params: t.Params}, env); err != nil {
				return fmt.Errorf("spec: %s: %w", where, err)
			}
		}
		return nil
	}
	if err := check("workload", e.Workload); err != nil {
		return err
	}
	variants, err := e.ExpandVariants()
	if err != nil {
		return err
	}
	for _, v := range variants {
		cfg, err := e.ConfigFor(v)
		if err != nil {
			return err
		}
		if _, err := cfg.Resolve(); err != nil {
			return fmt.Errorf("spec: variant %q: %w", v.Label, err)
		}
		if len(v.Workload) > 0 {
			if err := check(fmt.Sprintf("variant %q workload", v.Label), v.Workload); err != nil {
				return err
			}
		}
	}
	if len(e.Workload) == 0 {
		for _, v := range variants {
			if len(v.Workload) == 0 {
				return fmt.Errorf("%w: %q: variant %q has no workload", ErrExperiment, e.Name, v.Label)
			}
		}
		if len(variants) == 0 {
			return fmt.Errorf("%w: %q has no workload", ErrExperiment, e.Name)
		}
	}
	return nil
}
