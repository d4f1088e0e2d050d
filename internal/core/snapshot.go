package core

import (
	"fmt"

	"eagletree/internal/snapshot"
)

// Snapshot captures the complete state of a quiescent stack — typically one
// that just finished its device-preparation workload. The stack must be
// fully drained: every thread finished, no event pending, no IO anywhere in
// the OS or controller. Snapshot fails otherwise rather than dropping
// in-flight work.
//
// Restoring the returned state into a fresh stack (see Restore) and then
// registering the same workload produces bit-identical behavior to
// continuing this stack directly.
func (s *Stack) Snapshot() (*snapshot.DeviceState, error) {
	if n := s.Engine.Pending(); n != 0 {
		return nil, fmt.Errorf("%w: snapshot with %d events pending", ErrNotQuiescent, n)
	}
	if !s.Runner.Done() {
		return nil, fmt.Errorf("%w: snapshot with %d threads active", ErrNotQuiescent, s.Runner.Active())
	}
	if n := s.OS.InFlight(); n != 0 {
		return nil, fmt.Errorf("%w: snapshot with %d IOs in flight at the SSD", ErrNotQuiescent, n)
	}
	if n := s.OS.Pending(); n != 0 {
		return nil, fmt.Errorf("%w: snapshot with %d IOs pending in the OS pool", ErrNotQuiescent, n)
	}
	ctl, err := s.Controller.State()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &snapshot.DeviceState{
		Meta: snapshot.Meta{
			Geometry:     s.cfg.Controller.Geometry,
			Mapping:      s.Controller.Mapper().Name(),
			LogicalPages: s.Controller.LogicalPages(),
			Seed:         s.cfg.Seed,
		},
		Engine: snapshot.EngineState{
			Now:   s.Engine.Now(),
			Seq:   s.Engine.Seq(),
			Fired: s.Engine.Fired(),
		},
		Controller: *ctl,
		OS:         s.OS.Stats(),
		Runner:     s.Runner.State(),
	}, nil
}

// Restore builds a stack from the configuration on top of the snapshot's
// device state: flash contents and wear, mapping tables, free lists,
// counters, the virtual clock and the thread/RNG origins. The configuration
// must be structurally compatible with the one the snapshot was prepared
// under (same geometry, mapping scheme and logical capacity); policy-level
// knobs — schedulers, allocators, GC greediness, queue depth — may differ,
// which is what lets one prepared state serve a whole variant sweep.
//
// ds is immutable from here on: the stack shares its page-state and page-map
// columns — with every other stack restored from ds, concurrently too — and
// copies one only when it first writes to it, so a variant that only reads
// allocates none of them.
//
// Threads registered on the restored stack continue the original run's
// thread-id, RNG and request-id sequences exactly, so a restored run is bit-
// identical to one that prepared the device in-process.
func Restore(cfg Config, ds *snapshot.DeviceState) (*Stack, error) {
	if got := cfg.Controller.Geometry; got != ds.Meta.Geometry {
		return nil, fmt.Errorf("%w: snapshot geometry %+v does not match config geometry %+v", ErrSnapshotMismatch, ds.Meta.Geometry, got)
	}
	if got := cfg.Controller.Mapping.String(); got != ds.Meta.Mapping {
		return nil, fmt.Errorf("%w: snapshot maps with %q, config maps with %q", ErrSnapshotMismatch, ds.Meta.Mapping, got)
	}
	s, err := build(cfg, &ds.Controller)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if got := s.Controller.LogicalPages(); got != ds.Meta.LogicalPages {
		return nil, fmt.Errorf("%w: snapshot exports %d logical pages, config exports %d", ErrSnapshotMismatch, ds.Meta.LogicalPages, got)
	}
	s.OS.RestoreStats(ds.OS)
	if err := s.Runner.RestoreState(ds.Runner); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := s.Engine.Restore(ds.Engine.Now, ds.Engine.Seq, ds.Engine.Fired); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// GC targets may have tightened relative to the preparing configuration;
	// re-evaluate them now that the clock is in place, so the first measured
	// write cannot stall on a floor no completion will ever raise.
	s.Controller.Kick()
	return s, nil
}
