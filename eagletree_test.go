package eagletree

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"eagletree/internal/experiment"
	"eagletree/internal/flash"
	"eagletree/internal/hotcold"
	"eagletree/internal/spec"
)

func TestDefaultConfigIsValid(t *testing.T) {
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("DefaultConfig rejected: %v", err)
	}
	if _, err := New(SmallConfig()); err != nil {
		t.Fatalf("SmallConfig rejected: %v", err)
	}
}

// smallSpec is SmallConfig as a spec document's base configuration.
func smallSpec() spec.Config {
	return spec.Config{
		Geometry:      spec.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 64, PagesPerBlock: 16, PageSize: 4096},
		Timing:        spec.NamedRef("slc"),
		Overprovision: 0.15,
		GC:            spec.GCSpec{Greediness: 2},
		WL:            spec.NamedRef("off"),
		OS:            spec.OSSpec{QueueDepth: 16},
		Seed:          1,
	}
}

// TestSmallSpecIsSmallConfig: the document form of SmallConfig keys as
// SmallConfig does, so a document built on it runs the same device.
func TestSmallSpecIsSmallConfig(t *testing.T) {
	cfg, err := smallSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	got, err := spec.CanonKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.CanonKey(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("smallSpec keys as\n%s\nSmallConfig as\n%s", got, want)
	}
}

func TestFacadeExperiment(t *testing.T) {
	def, err := ExperimentFromSpec(ExperimentSpec{
		Name: "facade-sweep",
		Base: smallSpec(),
		Variants: []spec.Variant{
			{Label: "qd=1", X: 1, Set: map[string]any{"os.queue_depth": 1}},
			{Label: "qd=16", X: 16, Set: map[string]any{"os.queue_depth": 16}},
		},
		Workload: []spec.Thread{{Type: "randwrite", Params: map[string]any{"from": 0, "space": "n", "count": 500, "depth": 16}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(ExperimentOptions{}).Run(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Best(experiment.MetricThroughput).Label != "qd=16" {
		t.Fatalf("deeper queue lost the throughput sweep: best=%q", res.Best(experiment.MetricThroughput).Label)
	}
}

func TestTimingPresets(t *testing.T) {
	slc, mlc := flash.TimingSLC(), flash.TimingMLC()
	if mlc.PageWrite <= slc.PageWrite {
		t.Fatal("MLC programs faster than SLC")
	}
	if mlc.EnduranceLimit >= slc.EnduranceLimit {
		t.Fatal("MLC endures more than SLC")
	}
	if err := slc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mlc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsExtractValues(t *testing.T) {
	s, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.LogicalPages())
	s.Add(&SequentialWriter{From: 0, Count: n, Depth: 16})
	s.Run()
	rep := s.Report()
	for _, m := range []Metric{
		experiment.MetricThroughput, experiment.MetricWriteMean, experiment.MetricWriteP99, experiment.MetricWriteStd, MetricWA,
	} {
		if v := m.F(rep); v < 0 {
			t.Errorf("%s = %f, want >= 0", m.Name, v)
		}
	}
	if experiment.MetricThroughput.F(rep) == 0 {
		t.Fatal("zero throughput on a full fill")
	}
}

// TestMLCSlowerThanSLC is an end-to-end sanity check of the timing model
// through the whole stack.
func TestMLCSlowerThanSLC(t *testing.T) {
	run := func(timing flash.Timing) float64 {
		cfg := SmallConfig()
		cfg.Controller.Timing = timing
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(s.LogicalPages())
		s.Add(&SequentialWriter{From: 0, Count: n, Depth: 32})
		s.Run()
		return s.Report().Throughput
	}
	slc, mlc := run(flash.TimingSLC()), run(flash.TimingMLC())
	if mlc >= slc {
		t.Fatalf("MLC throughput %.0f >= SLC %.0f", mlc, slc)
	}
}

func TestBloomDetectorFacade(t *testing.T) {
	// Hot means "written in enough recent decay windows": hammer one page
	// across several windows (default window = 1024 writes) among unique
	// cold traffic.
	d := hotcold.NewMBF(hotcold.DefaultMBFConfig())
	for i := 0; i < 3000; i++ {
		if i%2 == 0 {
			d.RecordWrite(7)
		} else {
			d.RecordWrite(LPN(1000 + i))
		}
	}
	if d.Classify(7) != TempHot {
		t.Fatal("hammered page not classified hot")
	}
	if d.Classify(999999) == TempHot {
		t.Fatal("never-written page classified hot")
	}
}

// facadeAllowlist holds the exported facade names that no example and no
// external test spells, each with the kept signature or field that hands a
// caller its values.
var facadeAllowlist = map[string]string{
	"Handle":               "Stack.Add and Stack.AddBarrier take and return it",
	"Thread":               "Stack.Add takes it",
	"Message":              "Ctx.Publish takes it",
	"Detector":             "Config.Controller.Detector holds it",
	"Temperature":          "Detector.Classify returns it",
	"TempUnknown":          "a Detector.Classify result",
	"TempCold":             "a Detector.Classify result",
	"TempHot":              "a Detector.Classify result",
	"Report":               "Stack.Report returns it, ResultRow.Report holds it",
	"ResultRow":            "Results.Rows holds it",
	"Metric":               "Results.Chart takes it",
	"ExperimentObserver":   "ExperimentOptions.Observer holds it",
	"ExperimentEventKind":  "ExperimentEvent.Kind holds it",
	"EventVariantQueued":   "an ExperimentEvent.Kind value",
	"EventVariantFailed":   "an ExperimentEvent.Kind value",
	"EventVariantCanceled": "an ExperimentEvent.Kind value",
	"EventExperimentDone":  "an ExperimentEvent.Kind value",
	"SpecParamType":        "SpecParam.Type holds it",
}

// specTwinTypes are the internal/spec constant types the facade mirrors in
// full: every spec constant X of these types has a facade twin SpecX.
var specTwinTypes = map[string]bool{"Kind": true, "ParamType": true}

// TestFacadeSurface holds DESIGN.md's "Public API" rule: eagletree.go
// exports a name only if an example or the external test reaches it, a
// facade signature names it, or facadeAllowlist says which kept signature
// hands it out. The spec registry's kinds and parameter types are mirrored
// whole, and neither the examples nor the external test import internal
// packages.
func TestFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// The facade's exported names, the names its signatures use, and the
	// constants that mirror internal/spec.
	declared := map[string]bool{}
	used := map[string]bool{}
	twins := map[string]string{}
	facade := parse("eagletree.go")
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			declared[d.Name.Name] = d.Name.IsExported()
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declared[s.Name.Name] = s.Name.IsExported()
				case *ast.ValueSpec:
					for i, name := range s.Names {
						declared[name.Name] = name.IsExported()
						if sel, ok := s.Values[i].(*ast.SelectorExpr); ok && fmt.Sprint(sel.X) == "spec" {
							twins[name.Name] = sel.Sel.Name
						}
					}
				}
			}
		}
	}

	// Every spec constant of a mirrored type has its twin.
	specFiles, err := filepath.Glob(filepath.Join("internal", "spec", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	mirrored := map[string]bool{}
	for _, path := range specFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, decl := range parse(path).Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.CONST {
				continue
			}
			typ := "" // an untyped spec in a const group repeats the previous type
			for _, s := range d.Specs {
				vs := s.(*ast.ValueSpec)
				if id, ok := vs.Type.(*ast.Ident); ok {
					typ = id.Name
				} else if vs.Type != nil || len(vs.Values) > 0 {
					typ = ""
				}
				if !specTwinTypes[typ] {
					continue
				}
				for _, name := range vs.Names {
					mirrored[name.Name] = true
					if twins["Spec"+name.Name] != name.Name {
						t.Errorf("spec.%s (a %s) has no facade twin Spec%s = spec.%s", name.Name, typ, name.Name, name.Name)
					}
				}
			}
		}
	}
	if len(mirrored) < 10 {
		t.Fatalf("found only %d spec constants to mirror", len(mirrored))
	}

	// What the examples and the external test reach through the facade.
	users, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(users) < 8 {
		t.Fatalf("found only %d examples", len(users))
	}
	for _, path := range append(users, "external_test.go") {
		f := parse(path)
		local := ""
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(p, "eagletree/internal/") {
				t.Errorf("%s imports %s: examples and the external test use the facade only", path, p)
			}
			if p == "eagletree" {
				local = "eagletree"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	for name, exported := range declared {
		switch {
		case !exported, used[name], mirrored[twins[name]] && name == "Spec"+twins[name]:
		case facadeAllowlist[name] == "":
			t.Errorf("eagletree.%s: no example or external test reaches it and no kept signature names it; remove it or reach it", name)
		}
	}
	for name, why := range facadeAllowlist {
		switch {
		case !declared[name]:
			t.Errorf("facadeAllowlist: %s (%s) is not a facade name any more", name, why)
		case used[name]:
			t.Errorf("facadeAllowlist: %s is reached directly; drop its entry", name)
		}
	}
}
