package experiment

import (
	"fmt"

	"eagletree/internal/core"
	"eagletree/internal/spec"
	"eagletree/internal/workload"
)

// Device preparation is declared as a spec.Prep — the uFLIP-style sequential
// fill and random aging nearly every experiment pays before measuring.
// Declaring it (instead of hiding it in the workload) is what lets the runner
// key a snapshot cache on it: every variant sharing a preparation-relevant
// configuration restores the same prepared state instead of re-aging the
// device, which at full scale dominates sweep wall clock.

// prepLabel identifies a preparation in snapshot-cache keys.
func prepLabel(p spec.Prep) string {
	if p.FillDepth <= 0 {
		return "none"
	}
	return fmt.Sprintf("fill(d=%d)+age(passes=%d,d=%d)", p.FillDepth, p.AgePasses, ageDepth(p))
}

// ageDepth is the aging passes' IO depth: AgeDepth, or FillDepth when unset.
func ageDepth(p spec.Prep) int {
	if p.AgeDepth > 0 {
		return p.AgeDepth
	}
	return p.FillDepth
}

// addPrep adds the preparation threads to a stack and returns the handle of
// the last one (the thread a measurement barrier should depend on).
func addPrep(s *core.Stack, p spec.Prep) *workload.Handle {
	n := int64(s.LogicalPages())
	seq := s.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: p.FillDepth})
	if p.AgePasses > 0 {
		return s.Add(&workload.RandomWriter{From: 0, Space: n, Count: p.AgePasses * n, Depth: ageDepth(p)}, seq)
	}
	return seq
}

// prepConfig derives the configuration preparation runs under from the
// variant's full configuration: every structural and data-path knob is kept
// (geometry, timings, mapping scheme, overprovisioning, GC victim policy,
// wear leveling, detector, write buffer, bad blocks — they shape the aged
// state), while measurement-only knobs are pinned to the definition's base so
// variants sweeping them share one prepared state. Scheduling policy, write
// allocator, GC greediness, open-interface mode and the OS layer are
// measurement knobs: preparing under the base values and restoring under the
// variant's is exactly the "identical starting state, one variable changed"
// methodology §2.3 asks for.
//
// The result keys the snapshot cache. The preparation itself runs under
// prepDoc's configuration, resolved fresh for the build: the same knobs at
// the document level, so no live component is shared between a build and
// the definition.
func prepConfig(cfg, base core.Config) core.Config {
	p := cfg
	p.Controller.Policy = base.Controller.Policy
	p.Controller.Alloc = base.Controller.Alloc
	p.Controller.GCGreediness = base.Controller.GCGreediness
	p.Controller.OpenInterface = base.Controller.OpenInterface
	p.OS = base.OS
	p.OS.Capture = nil
	p.LockBus = base.LockBus
	p.SeriesBucket = 0
	p.TraceCap = 0
	return p
}

// prepDoc is prepConfig on document configurations: resolving
// prepDoc(variant, base) builds what prepConfig(resolved variant, resolved
// base) describes.
func prepDoc(cfg, base spec.Config) spec.Config {
	p := cfg
	p.Policy = base.Policy
	p.Alloc = base.Alloc
	p.GC.Greediness = base.GC.Greediness
	p.OpenInterface = base.OpenInterface
	p.OS = base.OS
	p.LockBus = base.LockBus
	p.SeriesBucket = 0
	p.TraceCap = 0
	return p
}

// prepKey builds the snapshot-cache key for one (preparation config, prep,
// seed) combination. The configuration is rendered through the component
// registry's canonical encoding (spec.CanonKey): deterministic across
// processes, covering every knob of every registered component — including
// ones configured through unexported state. A configuration holding an
// unregistered component type is an error, never a colliding key; register
// the component (or run with Options.NoPrepareCache) to proceed.
func prepKey(pcfg core.Config, p spec.Prep) (string, error) {
	canon, err := spec.CanonKey(pcfg)
	if err != nil {
		return "", fmt.Errorf("experiment: snapshot cache key (register the component with spec.Register, or disable the prepare cache): %w", err)
	}
	return "prep2|" + prepLabel(p) + "|" + canon, nil
}
