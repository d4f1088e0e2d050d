package experiment

import (
	"context"
	"errors"
	"fmt"
)

// ErrVariantIndex reports a RunVariant lease index outside the definition's
// grid — coordinator and worker disagree about the document.
var ErrVariantIndex = errors.New("experiment: variant index out of range")

// RunVariant executes exactly one variant of the definition — the
// lease-granular entry a distributed sweep hands to worker processes. The
// variant gets a fully isolated stack built from the definition's base
// configuration, so its Row is bit-identical to the same variant's row inside
// a sequential Run; a coordinator merging rows by index therefore reproduces
// the sequential Results exactly, whatever the leases' execution order.
//
// The runner's cache, observer and NoPrepareCache options apply as in Run:
// declared preparation is fetched from (or built into) the cache, and the
// variant's lifecycle events — one EventVariantQueued, cache provenance, one
// terminal variant event — stream to the observer. No EventExperimentDone is
// emitted: the sweep, not the lease, owns the terminal event.
//
// A canceled variant returns a *CanceledError wrapping ErrCanceled; a
// panicking variant returns its *VariantError, exactly as Run would have
// recorded it.
func (r *Runner) RunVariant(ctx context.Context, def Definition, index int) (Row, error) {
	if index < 0 || index >= len(def.Variants) {
		return Row{}, fmt.Errorf("experiment %q: %w: %d not in [0,%d)",
			def.Name, ErrVariantIndex, index, len(def.Variants))
	}
	rs := r.newRunState(def)
	v := def.Variants[index]
	rs.emit(Event{Kind: EventVariantQueued, Experiment: def.Name,
		Variant: v.Label, Index: index, Variants: len(def.Variants)})
	if !rs.runOne(ctx, index, v) {
		cause := context.Cause(ctx)
		if cause == nil {
			cause = context.Canceled
		}
		return Row{}, &CanceledError{Experiment: def.Name, Completed: 0,
			Total: len(def.Variants), Cause: cause}
	}
	return rs.rows[index], rs.errs[index]
}
