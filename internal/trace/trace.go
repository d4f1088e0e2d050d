// Package trace defines EagleTree's canonical block-trace format: a portable
// record of an application-level IO stream, captured from any run at the OS
// scheduler layer or converted from external block traces, and replayed
// through the stack by workload.Replay.
//
// A trace is an ordered sequence of records, each carrying the submission
// timestamp (relative to the capture origin), the dispatching thread, the
// operation, the logical page address, a size in pages, and the request's
// open-interface tags. Two codecs serialize it: a human-readable versioned
// text form and a compact delta/varint binary form (see codec.go); both
// round-trip exactly.
//
//eagletree:canonical
//eagletree:typederrors
package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// Record is one traced IO.
type Record struct {
	// At is the submission time relative to the trace origin.
	At sim.Time
	// Thread is the dispatching thread in the captured run.
	Thread int
	// Op is the request type (Read, Write or Trim; Erase never crosses the
	// block interface and is rejected by the codecs).
	Op iface.ReqType
	// LPN is the first logical page the IO touches.
	LPN iface.LPN
	// Size is the IO length in pages (>= 1). Captured runs record 1;
	// converted external traces may carry multi-page requests, which Replay
	// expands into consecutive page IOs.
	Size int
	// Tags is the open-interface metadata the request carried.
	Tags iface.Tags
}

func (r Record) String() string {
	return fmt.Sprintf("%v thr=%d %v lpn=%d size=%d", r.At, r.Thread, r.Op, r.LPN, r.Size)
}

// validate reports whether the record can appear in a canonical trace.
func (r Record) validate() error {
	switch r.Op {
	case iface.Read, iface.Write, iface.Trim:
	default:
		return fmt.Errorf("trace: op %v cannot cross the block interface", r.Op)
	}
	if r.Size < 1 {
		return fmt.Errorf("trace: size %d, must be >= 1", r.Size)
	}
	if r.At < 0 {
		return fmt.Errorf("trace: negative timestamp %v", r.At)
	}
	return nil
}

// Trace is an ordered application-level IO stream.
type Trace struct {
	Records []Record
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Pages returns the total IO volume in pages.
func (t *Trace) Pages() int64 {
	var n int64
	for _, r := range t.Records {
		n += int64(r.Size)
	}
	return n
}

// Duration returns the span from the origin to the last submission.
func (t *Trace) Duration() sim.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return sim.Duration(t.Records[len(t.Records)-1].At)
}

// Threads returns the distinct thread ids appearing in the trace, in order
// of first appearance.
func (t *Trace) Threads() []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range t.Records {
		if !seen[r.Thread] {
			seen[r.Thread] = true
			out = append(out, r.Thread)
		}
	}
	return out
}

// FilterThread returns a new trace holding only one thread's records, with
// timestamps left on the shared origin so per-thread replays stay aligned.
func (t *Trace) FilterThread(id int) *Trace {
	out := &Trace{}
	for _, r := range t.Records {
		if r.Thread == id {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Hash returns the trace's content hash: hex SHA-256 over the canonical
// binary encoding, streamed straight into the hash (no materialized copy).
// It identifies the logical IO stream, not a file — the same trace stored
// as text and as binary hashes identically — so specs can pin the exact
// stream a replay must consume (see MismatchError).
func (t *Trace) Hash() (string, error) {
	h := sha256.New()
	if err := EncodeBinary(h, t); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// MismatchError reports a replayed trace whose content hash does not match
// the provenance its spec pinned: the file was edited, regenerated under a
// different configuration, or simply isn't the capture the document was
// written against.
type MismatchError struct {
	// Path is the trace file that was loaded.
	Path string
	// Want is the content hash the spec pinned.
	Want string
	// Got is the loaded trace's content hash.
	Got string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("trace: %s: content hash %s does not match the spec's pinned provenance %s (the file is not the capture this document was written against)",
		e.Path, e.Got, e.Want)
}

// validate checks every record and the timestamp ordering.
func (t *Trace) validate() error {
	last := sim.Time(0)
	for i, r := range t.Records {
		if err := r.validate(); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if r.At < last {
			return fmt.Errorf("record %d: timestamp %v before predecessor %v", i, r.At, last)
		}
		last = r.At
	}
	return nil
}

// Capture records the app-level IO stream of a live run. Wire it to the OS
// scheduler via osched.Config.Capture; every submission is appended as one
// record with its timestamp rebased to the capture origin. A fresh Capture
// is active with origin 0; Stop and Start gate it around device preparation
// so only the measured workload is recorded.
type Capture struct {
	active bool
	origin sim.Time
	recs   []Record
}

// NewCapture returns an active capture with origin 0.
func NewCapture() *Capture { return &Capture{active: true} }

// Start (re)enables recording and rebases timestamps to at. Call it from a
// barrier thread so preparation traffic stays out of the trace.
func (c *Capture) Start(at sim.Time) {
	c.active = true
	c.origin = at
}

// Stop disables recording; already-captured records are kept.
func (c *Capture) Stop() { c.active = false }

// Active reports whether submissions are currently being recorded.
func (c *Capture) Active() bool { return c.active }

// Len returns how many records have been captured since the previous Trace.
func (c *Capture) Len() int { return len(c.recs) }

// Submitted records one request submission. It implements osched.Capture.
// Timestamps are kept monotone even across Stop/Start windows whose origin
// rebasing would step backwards, so a capture always yields an encodable
// trace.
func (c *Capture) Submitted(at sim.Time, r *iface.Request) {
	if !c.active {
		return
	}
	rel := at - c.origin
	if rel < 0 {
		rel = 0
	}
	if n := len(c.recs); n > 0 && rel < c.recs[n-1].At {
		rel = c.recs[n-1].At
	}
	c.recs = append(c.recs, Record{
		At:     rel,
		Thread: r.Thread,
		Op:     r.Type,
		LPN:    r.LPN,
		Size:   1,
		Tags:   r.Tags,
	})
}

// Trace hands over everything captured since the previous Trace, without
// copying it: the capture keeps no reference to the returned records and
// starts recording into a new slice, so neither side sees the other's
// later changes.
func (c *Capture) Trace() *Trace {
	out := c.recs
	c.recs = nil
	return &Trace{Records: out}
}
