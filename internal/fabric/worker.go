package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"time"

	"eagletree/internal/experiment"
	"eagletree/internal/sim"
	"eagletree/internal/spec"
)

// WorkerOptions configures one worker session.
type WorkerOptions struct {
	// Cache is the worker's local state cache (disk-backed when the worker
	// was started with one); nil means a private in-memory cache per
	// session. The session wires the coordinator in as the cache's remote
	// store, so prepared states flow: local memory, local disk, the wire,
	// and only then a local build (published back).
	Cache *experiment.StateCache
	// Logf, when non-nil, receives worker-side progress lines (stderr in
	// the CLI).
	Logf func(format string, args ...any)
}

// Serve runs one worker session over a byte stream: handshake, then a
// lease-execute-report loop until the coordinator sends shutdown or the
// stream ends. It returns nil on an orderly shutdown and the transport or
// protocol error otherwise.
func Serve(ctx context.Context, r io.Reader, w io.Writer, opts WorkerOptions) error {
	s := &workerSession{
		codec: NewCodec(r, w),
		logf:  opts.Logf,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}

	hello, err := s.codec.Recv()
	if err != nil {
		if errors.Is(err, io.EOF) {
			// The coordinator hung up before speaking — its crash, not ours.
			return nil
		}
		return fmt.Errorf("fabric: worker handshake: %w", err)
	}
	if hello.Type != MsgHello {
		return &ProtocolError{Reason: fmt.Sprintf("expected hello, got %q", hello.Type)}
	}
	if hello.Version != ProtoVersion {
		return &ProtocolError{Reason: fmt.Sprintf("protocol version %d, want %d", hello.Version, ProtoVersion)}
	}
	doc, err := spec.Decode(hello.Spec)
	if err != nil {
		return fmt.Errorf("fabric: worker: decoding spec document: %w", err)
	}
	def, err := experiment.FromSpec(doc)
	if err != nil {
		return fmt.Errorf("fabric: worker: compiling %q: %w", doc.Name, err)
	}
	if hello.SeriesBucket > 0 {
		def.SeriesBucket = sim.Duration(hello.SeriesBucket)
	}
	keys, err := doc.VariantKeys()
	if err != nil {
		return fmt.Errorf("fabric: worker: variant keys for %q: %w", doc.Name, err)
	}
	if err := s.codec.Send(Msg{Type: MsgReady, Version: ProtoVersion,
		Count: len(keys), Sum: KeyDigest(keys)}); err != nil {
		return err
	}
	s.logf("worker: serving %q (%d variants)", doc.Name, len(keys))

	cache := opts.Cache
	if cache == nil {
		cache = experiment.NewStateCache("")
	}
	cache.SetRemote(s.remoteFetch, s.publish)
	runner := experiment.New(experiment.Options{
		Workers:  1,
		Cache:    cache,
		Observer: experiment.ObserverFunc(s.forwardEvent),
	})

	for {
		m, err := s.codec.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				// A vanished coordinator is not the worker's failure.
				return nil
			}
			return err
		}
		switch m.Type {
		case MsgShutdown:
			s.logf("worker: shutdown (%s)", m.Error)
			return nil
		case MsgLease:
			if err := s.runLease(ctx, runner, def, keys, m); err != nil {
				return err
			}
		default:
			return &ProtocolError{Reason: fmt.Sprintf("unexpected %q from coordinator", m.Type)}
		}
	}
}

// workerSession is one Serve invocation's shared state. The session
// goroutine is the codec's only reader: leases are granted one at a time,
// and the fetch round-trip inside a lease reads its own reply inline — the
// coordinator sends nothing else mid-lease.
type workerSession struct {
	codec *Codec
	logf  func(string, ...any)
}

// runLease validates and executes one lease, sending result or failed. The
// variant runs on the session goroutine: the protocol grants one lease at a
// time, and the fetch round-trip inside it is a plain send/receive pair.
func (s *workerSession) runLease(ctx context.Context, runner *experiment.Runner, def experiment.Definition, keys []string, m Msg) error {
	if m.Index < 0 || m.Index >= len(keys) {
		return &ProtocolError{Reason: fmt.Sprintf("lease index %d out of range [0,%d)", m.Index, len(keys))}
	}
	if m.Key != keys[m.Index] {
		// The two processes resolved different configurations for the same
		// grid position — registry or version skew. Running anyway would
		// merge silently wrong rows; refuse the lease instead.
		return &ProtocolError{Reason: fmt.Sprintf("lease %d key mismatch: coordinator and worker resolve different configurations (version skew?)", m.Index)}
	}
	start := time.Now() //lint:wallclock per-lease wall-time telemetry
	row, err := runner.RunVariant(ctx, def, m.Index)
	wall := time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			// This process is being stopped (SIGTERM on a TCP worker host),
			// not the variant failing: drop the session so the coordinator
			// sees a dead worker and re-issues the lease to a survivor,
			// rather than recording a permanent variant failure.
			s.logf("worker: abandoning variant %d after %v: %v", m.Index, wall.Round(time.Millisecond), ctx.Err())
			return fmt.Errorf("fabric: worker stopping: lease %d abandoned: %w", m.Index, context.Cause(ctx))
		}
		var ve *experiment.VariantError
		isPanic := errors.As(err, &ve)
		s.logf("worker: variant %d failed after %v: %v", m.Index, wall.Round(time.Millisecond), err)
		return s.codec.Send(Msg{Type: MsgFailed, Index: m.Index, Key: m.Key,
			Variant: def.Variants[m.Index].Label, Error: err.Error(), Panic: isPanic,
			Wall: int64(wall)})
	}
	s.logf("worker: variant %d (%s) done in %v", m.Index, row.Label, wall.Round(time.Millisecond))
	return s.codec.Send(Msg{Type: MsgResult, Index: m.Index, Key: m.Key,
		Row: &row, Wall: int64(wall)})
}

// remoteFetch asks the coordinator's cache for a prepared state. (nil, nil)
// is a remote miss — the build is delegated to this worker. The state cache
// decodes every payload before it trusts it (and keeps the decode), so a
// transport that corrupts a snapshot costs a local rebuild, never a
// diverging simulation.
func (s *workerSession) remoteFetch(key string) ([]byte, error) {
	if err := s.codec.Send(Msg{Type: MsgFetch, Key: key}); err != nil {
		return nil, err
	}
	m, err := s.codec.Recv()
	if err != nil {
		return nil, err
	}
	if m.Type != MsgState {
		return nil, &ProtocolError{Reason: fmt.Sprintf("expected state reply, got %q", m.Type)}
	}
	if m.Key != key {
		return nil, &ProtocolError{Reason: fmt.Sprintf("state reply for key %q, want %q", m.Key, key)}
	}
	if m.Miss {
		return nil, nil
	}
	return m.Data, nil
}

// publish mirrors a locally built state to the coordinator, best-effort: a
// failed publish costs other workers a rebuild, never this variant.
func (s *workerSession) publish(key string, data []byte) {
	_ = s.codec.Send(Msg{Type: MsgPut, Key: key, Data: data})
}

// forwardEvent streams a runner event to the coordinator. Rows ride in the
// result message, not the event stream, so EventVariantDone is forwarded
// without its row copy.
func (s *workerSession) forwardEvent(ev experiment.Event) {
	m := Msg{Type: MsgEvent, Kind: ev.Kind, Index: ev.Index,
		Variant: ev.Variant, Variants: ev.Variants, Key: ev.CacheKey,
		Wall: int64(ev.Wall)}
	if ev.Err != nil {
		m.Error = ev.Err.Error()
	}
	_ = s.codec.Send(m)
}

// KeyDigest condenses a variant-key list into a short hex digest. The
// handshake compares digests instead of shipping every canonical
// configuration string twice; indices are mixed in so a permutation cannot
// collide.
func KeyDigest(keys []string) string {
	h := sha256.New()
	var idx [8]byte
	for i, k := range keys {
		binary.LittleEndian.PutUint64(idx[:], uint64(i))
		h.Write(idx[:])
		io.WriteString(h, k)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
