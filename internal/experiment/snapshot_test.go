package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"eagletree/internal/core"
	"eagletree/internal/spec"
)

// suiteRun is one experiment's share of the whole-suite pass.
type suiteRun struct {
	name string
	// fresh re-runs preparation for every variant and restores nothing.
	fresh Results
	// cached1 and cached4 run at one and four workers on one snapshot cache
	// shared by every experiment of the pass, so a state aged for one
	// experiment serves the next.
	cached1, cached4 Results
	// fromFile runs the experiment's document read from specs/ by path — how
	// the benchmark, CI and `eagletree spec` get it — on that cache, except
	// with -short; newEntries counts the prepared states it added.
	fromFile   Results
	newEntries int
	// programs tallies each variant of the fresh run for TestProgramIdentity.
	programs []programTally
	err      error
}

var (
	suitePassOnce sync.Once
	suitePassRuns []suiteRun
)

// suitePass runs the small E1–E14 suite once, down every run path, for the
// three tests that compare those paths: TestSnapshotRestoreDeterministic,
// TestRunnerMatchesRunWorkers and TestSpecSuiteMatchesCompiled each assert
// their own equality over the same results.
func suitePass() []suiteRun {
	suitePassOnce.Do(func() {
		ctx := context.Background()
		cache := NewStateCache("")
		for i, def := range Suite(Small) {
			r := suiteRun{name: def.Name}
			r.err = func() (err error) {
				tally := tallyPrograms(len(def.Variants))
				r.fresh, err = New(Options{Workers: 1, NoPrepareCache: true}).Run(ctx, def)
				r.programs = tally(r.fresh)
				if err != nil {
					return err
				}
				if r.cached1, err = New(Options{Workers: 1, Cache: cache}).Run(ctx, def); err != nil {
					return err
				}
				if r.cached4, err = New(Options{Workers: 4, Cache: cache}).Run(ctx, def); err != nil {
					return err
				}
				if testing.Short() {
					return nil // TestSpecSuiteMatchesCompiled is skipped
				}
				doc, err := spec.ReadFile(filepath.Join("../../specs", fmt.Sprintf("e%d.json", i+1)))
				if err != nil {
					return err
				}
				fromFile, err := FromSpec(doc)
				if err != nil {
					return err
				}
				entries := cache.Len()
				r.fromFile, err = New(Options{Workers: 1, Cache: cache}).Run(ctx, fromFile)
				r.newEntries = cache.Len() - entries
				return err
			}()
			suitePassRuns = append(suitePassRuns, r)
		}
	})
	return suitePassRuns
}

// programTally is one variant's flash programs over the measurement window
// beside the writes that account for them.
type programTally struct {
	label                string
	writes, copybacks    uint64 // flash programs
	app, gc, wl, trans   uint64 // app writes, GC and WL migrations, translation writes
	retries, relocations uint64 // fault recovery
}

func (p programTally) String() string {
	return fmt.Sprintf("%s: writes %d + copybacks %d vs app %d + gc %d + wl %d + trans %d + retries %d + relocations %d",
		p.label, p.writes, p.copybacks, p.app, p.gc, p.wl, p.trans, p.retries, p.relocations)
}

// tallyPrograms keeps, through the Runner's measurement seam, each of the
// next run's variant stacks and its counters at the measurement epoch, until
// the returned function reads each stack's counters back after the run (and
// clears the seam). The run must use one worker.
func tallyPrograms(variants int) func(Results) []programTally {
	stacks := make([]*core.Stack, variants)
	epoch := make([]programTally, variants)
	counts := func(s *core.Stack) programTally {
		ac, cc := s.Controller.Array().Counters(), s.Controller.Counters()
		rel := s.Controller.Reliability()
		return programTally{writes: ac.Writes, copybacks: ac.Copybacks, app: cc.AppWrites,
			retries: rel.Retries, relocations: rel.Relocations}
	}
	clear := onMeasure(func(i int, s *core.Stack) { stacks[i], epoch[i] = s, counts(s) })
	return func(res Results) []programTally {
		clear()
		out := make([]programTally, len(res.Rows))
		for i, row := range res.Rows {
			end, rep := counts(stacks[i]), row.Report
			out[i] = programTally{label: row.Label,
				writes: end.writes - epoch[i].writes, copybacks: end.copybacks - epoch[i].copybacks,
				app: end.app - epoch[i].app, gc: rep.GCMigratedPages, wl: rep.WLMigratedPages, trans: rep.TransWrites,
				retries: end.retries - epoch[i].retries, relocations: end.relocations - epoch[i].relocations}
		}
		return out
	}
}

// TestProgramIdentity: every flash program in a measurement window is
// accounted for — flash writes + copybacks = app writes + GC migrations + WL
// migrations + translation writes + retries + relocations — on every variant
// of the small suite, read from the fresh pass's stacks.
func TestProgramIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the whole-suite pass; skipped with -short")
	}
	forEachSuiteRun(t, func(t *testing.T, r suiteRun) {
		if len(r.programs) == 0 {
			t.Fatal("the fresh pass tallied no variant")
		}
		for _, p := range r.programs {
			if p.writes+p.copybacks != p.app+p.gc+p.wl+p.trans+p.retries+p.relocations {
				t.Errorf("program identity does not close: %v", p)
			}
		}
	})
}

// forEachSuiteRun runs check over the suite pass, one subtest an experiment.
func forEachSuiteRun(t *testing.T, check func(t *testing.T, r suiteRun)) {
	for _, r := range suitePass() {
		t.Run(r.name, func(t *testing.T) {
			if r.err != nil {
				t.Fatal(r.err)
			}
			check(t, r)
		})
	}
}

// TestSnapshotRestoreDeterministic is the acceptance gate for the snapshot
// flow: across the suite, per-variant Reports from snapshot-restored devices
// must be bit-identical to freshly prepared runs. NoPrepareCache re-runs
// preparation for every variant; the cached run restores one shared
// snapshot per distinct prepared state. TestRunnerMatchesRunWorkers carries
// the equality to four workers.
func TestSnapshotRestoreDeterministic(t *testing.T) {
	forEachSuiteRun(t, func(t *testing.T, r suiteRun) {
		if !reflect.DeepEqual(r.fresh, r.cached1) {
			t.Fatalf("cached results differ from fresh preparation:\nfresh:  %+v\ncached: %+v", r.fresh, r.cached1)
		}
	})
}

// TestStateCacheSharesPreparation: variants of one experiment that share a
// preparation-relevant configuration must build exactly one snapshot.
func TestStateCacheSharesPreparation(t *testing.T) {
	def := suiteDef(t, "e3", Small) // four greediness variants, one aged state
	cache := NewStateCache("")
	builds := 0
	countingGet := func(key string, build func() ([]byte, error)) ([]byte, error) {
		return cache.Get(key, func() ([]byte, error) {
			builds++
			return build()
		})
	}
	for _, v := range def.Variants {
		if v.Prep.FillDepth <= 0 {
			t.Fatalf("variant %q does not use declared preparation", v.Label)
		}
		cfg, err := def.config(v)
		if err != nil {
			t.Fatal(err)
		}
		key, err := prepKey(prepConfig(cfg, def.base), v.Prep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := countingGet(key, func() ([]byte, error) {
			return buildPrepared(context.Background(), prepDoc(v.Config, def.baseDoc), v.Prep)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 1 {
		t.Fatalf("4 greediness variants built %d prepared states, want 1 shared", builds)
	}
}

// TestStateCacheDisk: a disk-backed cache persists snapshots across cache
// instances, and silently rebuilds entries that were corrupted on disk.
func TestStateCacheDisk(t *testing.T) {
	dir := t.TempDir()
	key := "test-key"
	builds := 0
	build := func() ([]byte, error) {
		builds++
		def := suiteDef(t, "e11", Small)
		return buildPrepared(context.Background(), prepDoc(def.baseDoc, def.baseDoc), spec.Prep{FillDepth: 32, AgePasses: 2})
	}

	c1 := NewStateCache(dir)
	first, err := c1.Get(key, build)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewStateCache(dir)
	second, err := c2.Get(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("disk cache rebuilt: %d builds, want 1", builds)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("disk cache returned different bytes")
	}

	// Corrupt every cached file; a fresh cache must rebuild, not trust it.
	files, err := filepath.Glob(filepath.Join(dir, "*.state"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files written (err=%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c3 := NewStateCache(dir)
	third, err := c3.Get(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("corrupt cache entry was trusted: %d builds, want 2", builds)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatal("rebuilt bytes differ from original build")
	}
}

// TestPrepKeyDistinguishesConfigs: preparation-relevant knobs must change
// the cache key; measurement-only knobs must not.
func TestPrepKeyDistinguishesConfigs(t *testing.T) {
	def := suiteDef(t, "e3", Small)
	prep := def.Variants[0].Prep
	keyOf := func(mut func(*core.Config)) string {
		cfg := def.base
		if mut != nil {
			mut(&cfg)
		}
		key, err := prepKey(prepConfig(cfg, def.base), prep)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	ref := keyOf(nil)
	if keyOf(func(c *core.Config) { c.Controller.GCGreediness = 8 }) != ref {
		t.Fatal("greediness (a measurement knob) changed the prep key")
	}
	if keyOf(func(c *core.Config) { c.OS.QueueDepth = 4 }) != ref {
		t.Fatal("OS queue depth (a measurement knob) changed the prep key")
	}
	if keyOf(func(c *core.Config) { c.Controller.Geometry.BlocksPerLUN = 128 }) == ref {
		t.Fatal("geometry change did not change the prep key")
	}
	if keyOf(func(c *core.Config) { c.Seed = 99 }) == ref {
		t.Fatal("seed change did not change the prep key")
	}
	if keyOf(func(c *core.Config) { c.Controller.Overprovision = 0.3 }) == ref {
		t.Fatal("overprovision change did not change the prep key")
	}
	fillKey, err := prepKey(prepConfig(def.base, def.base), spec.Prep{FillDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	if fillKey == ref {
		t.Fatal("prep spec change did not change the prep key")
	}
}

// TestPrepDocBuildsItsKey: the configuration a preparation build resolves
// (prepDoc, at the document level) is the one its cache key describes
// (prepConfig, on resolved configurations), for every variant with declared
// preparation of every suite document at both scales —
// else a cached state would be filed under another configuration's key.
func TestPrepDocBuildsItsKey(t *testing.T) {
	docs := append(SuiteSpecs(Small), SuiteSpecs(Full)...)
	for _, doc := range docs {
		def := compile(t, doc)
		for _, v := range def.Variants {
			if v.Prep.FillDepth <= 0 {
				continue
			}
			cfg, err := def.config(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := spec.CanonKey(prepConfig(cfg, def.base))
			if err != nil {
				t.Fatal(err)
			}
			built, err := prepDoc(v.Config, def.baseDoc).Resolve()
			if err != nil {
				t.Fatal(err)
			}
			got, err := spec.CanonKey(built)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s variant %q: the build resolves\n%s\nthe key describes\n%s", doc.Name, v.Label, got, want)
			}
		}
	}
}
