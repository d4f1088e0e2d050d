package experiment

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"eagletree/internal/core"
	"eagletree/internal/spec"
	"eagletree/specs"
)

var updateSpecs = flag.Bool("update-specs", false, "rewrite the derived golden files under specs/full/")

// TestGoldenSpecFiles: every embedded suite document decodes, validates, and
// is already in canonical form — re-encoding it reproduces the committed
// bytes — so a hand edit that leaves a document non-canonical (and would
// shift its CanonKey against a tool-written copy) fails here.
func TestGoldenSpecFiles(t *testing.T) {
	names, err := fs.Glob(specs.FS, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no suite documents embedded")
	}
	for _, name := range names {
		data, err := specs.FS.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := spec.Decode(data)
		if err != nil {
			t.Fatalf("%s does not decode: %v", name, err)
		}
		if err := doc.Validate(); err != nil {
			t.Fatalf("%s does not validate: %v", name, err)
		}
		canon, err := spec.Encode(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(data, canon) {
			t.Errorf("specs/%s is not in canonical form: spec.Encode(spec.Decode(file)) differs from the file", name)
		}
	}
}

// TestSpecSuiteMatchesCompiled: a suite document read from its file by path —
// how the benchmark, CI and `eagletree spec` get it — runs to the same
// Results as the suite entry compiled into the binary. The file's run shares
// the suite entry's snapshot cache and must be served from it entirely (two
// decodes of one document agree on every CanonKey), so the comparison is
// also warm ≡ cold across the whole suite.
func TestSpecSuiteMatchesCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite from its files; skipped with -short (the race CI leg)")
	}
	forEachSuiteRun(t, func(t *testing.T, r suiteRun) {
		if r.newEntries != 0 {
			t.Errorf("the file-driven run built %d new prepared states; the suite entry's cache entries should have been hits", r.newEntries)
		}
		if !reflect.DeepEqual(r.cached1, r.fromFile) {
			t.Fatalf("file-driven results differ from the suite entry's:\nsuite: %+v\nfile:  %+v", r.cached1, r.fromFile)
		}
	})
}

// TestSuiteSpecsPaperOrder: SuiteSpecs yields E1…E14, in that order, as valid
// documents at both scales, and SuiteSpec finds each by id and by name.
func TestSuiteSpecsPaperOrder(t *testing.T) {
	for _, sc := range []Scale{Small, Full} {
		suite := SuiteSpecs(sc)
		if len(suite) != 14 {
			t.Fatalf("scale %d: %d suite documents, want 14", sc, len(suite))
		}
		for i, e := range suite {
			id := fmt.Sprintf("E%d", i+1)
			if !strings.HasPrefix(e.Name, id+"-") {
				t.Errorf("scale %d: position %d holds %q, want %s", sc, i, e.Name, id)
			}
			if err := e.Validate(); err != nil {
				t.Errorf("scale %d: %s does not validate: %v", sc, e.Name, err)
			}
			for _, sel := range []string{strings.ToLower(id), e.Name} {
				if got, ok := SuiteSpec(sel, sc); !ok || got.Name != e.Name {
					t.Errorf("scale %d: SuiteSpec(%q) = %q, %v", sc, sel, got.Name, ok)
				}
			}
		}
		if _, ok := SuiteSpec("e99", sc); ok {
			t.Errorf("scale %d: SuiteSpec found e99", sc)
		}
	}
}

// TestSpecRepeatIndexDoesNotLeak: a thread's repeat expression must see a
// fresh i, not the previous thread's last replica index (regression: env.I
// leaked across thread entries, so repeat:"i+1" after a repeat:3 thread
// registered three replicas instead of one).
func TestSpecRepeatIndexDoesNotLeak(t *testing.T) {
	e11, _ := SuiteSpec("e11", Small)
	e := spec.Experiment{
		Name: "repeat-leak",
		Base: e11.Base,
		Workload: []spec.Thread{
			{Type: "randwrite", Repeat: 3, Params: map[string]any{"from": 0, "space": "n", "count": 10, "depth": 4}},
			{Type: "randread", Repeat: "i+1", Params: map[string]any{"from": 0, "space": "n", "count": 10, "depth": 4}},
		},
	}
	cfg, err := e.Base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterRun(e, spec.Variant{}, st); err != nil {
		t.Fatal(err)
	}
	if got := st.Runner.Active(); got != 4 {
		t.Fatalf("registered %d threads, want 4 (3 writers + 1 reader; i must reset per thread)", got)
	}
}

// TestRegisterRunRefusesPrep: RegisterRun registers measured threads only;
// a preparation declared by the document or by the variant is refused with
// ErrDeclaredPrep, before any thread registers, and a variant that clears
// the document's preparation registers its workload.
func TestRegisterRunRefusesPrep(t *testing.T) {
	e11, _ := SuiteSpec("e11", Small)
	e := spec.Experiment{
		Name:     "declared-prep",
		Base:     e11.Base,
		Workload: []spec.Thread{{Type: "randwrite", Params: map[string]any{"from": 0, "space": "n", "count": 10, "depth": 4}}},
	}
	prep := &spec.Prep{FillDepth: 32, AgePasses: 1}
	cfg, err := e.Base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	withDocPrep := e
	withDocPrep.Prep = prep
	for _, c := range []struct {
		name string
		e    spec.Experiment
		v    spec.Variant
		want error
	}{
		{"document prep", withDocPrep, spec.Variant{Label: "run"}, ErrDeclaredPrep},
		{"variant prep", e, spec.Variant{Label: "run", Prep: prep}, ErrDeclaredPrep},
		{"prep cleared by the variant", withDocPrep, spec.Variant{Label: "run", Prep: &spec.Prep{}}, nil},
	} {
		st, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = RegisterRun(c.e, c.v, st)
		if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Errorf("%s: RegisterRun = %v, want %v", c.name, err, c.want)
		}
		want := 1
		if c.want != nil {
			want = 0
		}
		if got := st.Runner.Active(); got != want {
			t.Errorf("%s: %d threads registered, want %d", c.name, got, want)
		}
	}
}
