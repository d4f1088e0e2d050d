package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"eagletree/internal/experiment"
	"eagletree/internal/spec"
)

// Sink adapts one experiment run's event stream into store rows. It is an
// experiment.Observer: attach it to the in-process Runner's Options or to
// the fabric coordinator's Options and every completed variant's row is
// captured with full provenance — the document digest, the variant's
// canonical configuration key, its resolved seed, and the commit label.
// Sequential, parallel and distributed runs emit the same terminal events,
// so the persisted rows are identical regardless of how the sweep executed.
//
// Rows accumulate in memory (events arrive in completion order; rows are
// kept in grid order) and land in the store as one atomic segment on Flush —
// a canceled or failed sweep persists nothing unless flushed explicitly.
type Sink struct {
	store      *Store
	experiment string
	digest     string
	commit     string

	mu      sync.Mutex
	rows    []Row
	present []bool
}

// NewSink builds a sink for one run of doc, labeling every row with commit.
// The variant identities — canonical keys and seeds — are computed up front
// from the compiled document, exactly as the distributed fabric computes its
// lease keys, so a row's provenance never depends on which path executed it.
func NewSink(store *Store, doc spec.Experiment, commit string) (*Sink, error) {
	def, err := experiment.FromSpec(doc)
	if err != nil {
		return nil, err
	}
	return NewSinkFor(store, doc, def, commit)
}

// NewSinkFor is NewSink for a document the caller has already compiled (def
// is experiment.FromSpec(doc)), so a sweep that runs def and stores its rows
// compiles the document once.
func NewSinkFor(store *Store, doc spec.Experiment, def experiment.Definition, commit string) (*Sink, error) {
	keys, err := def.Keys()
	if err != nil {
		return nil, err
	}
	docJSON, err := spec.Encode(doc)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(docJSON)
	s := &Sink{
		store:      store,
		experiment: doc.Name,
		digest:     hex.EncodeToString(sum[:]),
		commit:     commit,
		rows:       make([]Row, len(keys)),
		present:    make([]bool, len(keys)),
	}
	for i, v := range def.Variants {
		// An unset seed runs as 1, as the canonical key records it.
		seed := v.Config.Seed
		if seed == 0 {
			seed = 1
		}
		s.rows[i] = Row{
			Experiment: doc.Name,
			Spec:       s.digest,
			Commit:     commit,
			Seed:       seed,
			Index:      i,
			Variant:    keys[i],
			Label:      v.Label,
			X:          v.X,
		}
	}
	return s, nil
}

// OnEvent implements experiment.Observer: successful variant completions are
// captured, everything else passes through untouched.
func (s *Sink) OnEvent(ev experiment.Event) {
	if ev.Kind != experiment.EventVariantDone || ev.Row == nil || ev.Experiment != s.experiment {
		return
	}
	if ev.Index < 0 || ev.Index >= len(s.rows) {
		return
	}
	s.mu.Lock()
	s.rows[ev.Index].Report = ev.Row.Report
	s.present[ev.Index] = true
	s.mu.Unlock()
}

// Rows returns the captured rows in grid order — only variants that
// completed successfully so far.
func (s *Sink) Rows() []Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Row
	for i, ok := range s.present {
		if ok {
			out = append(out, s.rows[i])
		}
	}
	return out
}

// Flush appends the captured rows to the store as one atomic segment. A sink
// with no completed rows flushes nothing.
func (s *Sink) Flush() error {
	return s.store.Append(s.Rows())
}
