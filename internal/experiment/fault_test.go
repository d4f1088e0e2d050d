package experiment

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/spec"
)

// TestE14FaultySweepDeterministic: the reliability experiment — every variant
// injecting faults and relocating around retired blocks — produces
// bit-identical rows under the sequential and the parallel runner, with the
// snapshot cache on and off. This is the test the CI race step runs with -race:
// fault injection sits on the controller's hot path, so any shared mutable
// state between concurrently sweeping variants would surface here.
func TestE14FaultySweepDeterministic(t *testing.T) {
	def := suiteDef(t, "e14", Small)
	want, err := New(Options{Workers: 1}).Run(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Workers: 4},
		{Workers: 4, NoPrepareCache: true},
	} {
		got, err := New(opts).Run(context.Background(), def)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("opts %+v: faulty sweep results differ from the sequential reference", opts)
		}
	}

	// The sweep must actually exercise the degradation paths: the fault-free
	// baseline reports zero reliability activity, the faulted variants
	// report injections and a shrunken effective over-provisioning.
	base := want.Rows[0].Report
	if base.Retries+base.Relocations+base.EraseFailures+base.GrownBadBlocks != 0 {
		t.Fatalf("fault=none variant reports reliability activity: %+v", base)
	}
	for _, row := range want.Rows[1:] {
		r := row.Report
		if r.Retries == 0 || r.GrownBadBlocks == 0 {
			t.Fatalf("variant %q reports no injections (retries=%d grown=%d)", row.Label, r.Retries, r.GrownBadBlocks)
		}
		if r.EffectiveOP >= base.EffectiveOP {
			t.Fatalf("variant %q effective OP %.3f did not shrink from baseline %.3f",
				row.Label, r.EffectiveOP, base.EffectiveOP)
		}
	}
}

// TestWornOutDeviceSurfacesTypedError: a fault rate brutal enough to exhaust
// the free pool must end the run with the controller's typed ErrDeviceWornOut
// — never a hang and never only the generic workload-deadlock message.
func TestWornOutDeviceSurfacesTypedError(t *testing.T) {
	doc, _ := SuiteSpec("e14", Small)
	// 2% of erases fail and every program failure grows the block bad:
	// retirement outruns the over-provisioning slack within the sweep.
	doc.Variants = []spec.Variant{{
		Label: "wornout",
		Set: map[string]any{"fault": spec.ParamRef("random", map[string]any{
			"program_fail": 0.002, "erase_fail": 0.02, "grown_bad": 1, "seed": 11})},
	}}
	_, err := New(Options{Workers: 1}).Run(context.Background(), compile(t, doc))
	if err == nil {
		t.Fatal("worn-out run returned no error")
	}
	if !errors.Is(err, controller.ErrDeviceWornOut) {
		t.Fatalf("err = %v, want to wrap controller.ErrDeviceWornOut", err)
	}
}

// TestZeroFaultIsNoFault: a fault model that never fires is no fault model.
// Every E1–E13 small document with its base fault set to random at rate 0
// runs to Reports identical, bit for bit, to the committed document's (the
// whole-suite pass's cached run). E14 varies the fault model itself.
func TestZeroFaultIsNoFault(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small suite again; skipped with -short")
	}
	zero := spec.ParamRef("random", map[string]any{"program_fail": 0, "erase_fail": 0, "grown_bad": 0})
	docs := SuiteSpecs(Small)
	forEachSuiteRun(t, func(t *testing.T, r suiteRun) {
		i := slices.IndexFunc(docs, func(d spec.Experiment) bool { return d.Name == r.name })
		if strings.HasPrefix(r.name, "E14-") {
			t.Skip("the reliability experiment varies the fault model")
		}
		doc := docs[i]
		doc.Base.Fault = &zero
		got, err := New(Options{}).Run(context.Background(), compile(t, doc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r.cached1) {
			t.Fatalf("a zero-rate fault model changed the results:\nno fault:   %+v\nzero fault: %+v", r.cached1, got)
		}
	})
}
