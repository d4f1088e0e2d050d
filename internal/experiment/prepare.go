package experiment

import (
	"fmt"

	"eagletree/internal/core"
	"eagletree/internal/spec"
	"eagletree/internal/workload"
)

// PrepareSpec declares device preparation — the uFLIP-style sequential fill
// and random aging nearly every experiment pays before measuring. Declaring
// it (instead of hiding it in a closure) is what lets the runner key a
// snapshot cache on it: every variant sharing a preparation-relevant
// configuration restores the same prepared state instead of re-aging the
// device, which at full scale dominates sweep wall clock.
type PrepareSpec struct {
	// FillDepth is the IO depth of the sequential fill pass over the whole
	// logical space. Zero disables preparation entirely.
	FillDepth int
	// AgePasses is how many random-overwrite passes over the logical space
	// follow the fill (0 = fill only).
	AgePasses int64
	// AgeDepth is the IO depth of the aging passes; zero means FillDepth.
	AgeDepth int
}

// None reports whether the spec declares no preparation at all.
func (p PrepareSpec) None() bool { return p.FillDepth <= 0 }

// key identifies the spec in snapshot-cache keys.
func (p PrepareSpec) key() string {
	if p.None() {
		return "none"
	}
	return fmt.Sprintf("fill(d=%d)+age(passes=%d,d=%d)", p.FillDepth, p.AgePasses, p.ageDepth())
}

func (p PrepareSpec) ageDepth() int {
	if p.AgeDepth > 0 {
		return p.AgeDepth
	}
	return p.FillDepth
}

// register adds the preparation threads to a stack and returns the handle
// of the last one (the thread a measurement barrier should depend on).
func (p PrepareSpec) register(s *core.Stack) *workload.Handle {
	n := int64(s.LogicalPages())
	seq := s.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: p.FillDepth})
	if p.AgePasses > 0 {
		return s.Add(&workload.RandomWriter{From: 0, Space: n, Count: p.AgePasses * n, Depth: p.ageDepth()}, seq)
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

// prepKey builds the snapshot-cache key for one (preparation config, spec,
// seed) combination. The configuration is rendered through the component
// registry's canonical encoding (spec.CanonKey): deterministic across
// processes, covering every knob of every registered component — including
// ones configured through unexported state, which the old reflective printer
// silently collapsed. A configuration holding an unregistered component
// type is an error, never a colliding key; register the component (or run
// with Options.NoPrepareCache) to proceed.
func prepKey(pcfg core.Config, spc PrepareSpec) (string, error) {
	canon, err := spec.CanonKey(pcfg)
	if err != nil {
		return "", fmt.Errorf("experiment: snapshot cache key (register the component with spec.Register, or disable the prepare cache): %w", err)
	}
	return "prep2|" + spc.key() + "|" + canon, nil
}
