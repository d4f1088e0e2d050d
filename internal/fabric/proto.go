// Package fabric implements the distributed sweep fabric: a coordinator that
// shards a spec document's variant grid across worker processes and merges
// their rows back deterministically.
//
// The wire protocol is a stream of sealed binfmt frames, one per message,
// carried over any byte stream: a worker subprocess's stdin/stdout, or a TCP
// connection to `eagletree worker -listen`. A frame is the magic EGTWIRE, the
// protocol version, a uvarint payload length, the payload — the message's
// JSON header and its raw state bytes, each length-prefixed — and a CRC32.
//
// The coordinator hands out (canonical-config-key, variant-index) leases one
// at a time per worker; workers execute each lease through the experiment
// Runner's lease-granular entry, stream its lifecycle events back live, and
// return the finished Row. Rows merge by grid position, so the assembled
// Results are byte-identical to a sequential sweep regardless of worker
// count, lease order, or mid-run worker crashes (a lost lease is re-issued;
// completed rows stand).
//
// Device preparation stays content-addressed: a worker first consults the
// coordinator's StateCache by canonical key, and only encoded snapshots ever
// cross the wire. A miss delegates the build to the requesting worker, whose
// published result then serves every other worker waiting on the same key.
//
// One trust rule covers those states: the coordinator, which never restores
// a stack, checks a state's seal (magic, version, CRC32) and nothing more;
// the worker that restores it decodes it in full. A state that is sealed but
// does not decode is rejected back: the coordinator evicts it from memory
// and disk and delegates its rebuild to the rejecting worker, as on a miss.
//
// Truncated, corrupted or out-of-protocol input surfaces as this package's
// typed errors — never a panic, matching the snapshot codec's fuzz contract.
//
//eagletree:typederrors
package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"eagletree/internal/binfmt"
	"eagletree/internal/experiment"
)

// ProtoVersion is the wire protocol version; both ends must agree exactly.
// Every frame carries it, so a peer of another version is refused at its
// first frame, before any lease is granted. Version 3 added reject.
const ProtoVersion = 3

// Errors reported by the codec. Wrapped with detail; match with errors.Is.
var (
	// ErrTruncated marks a message cut off mid-value — a dying peer.
	ErrTruncated = errors.New("fabric: truncated message")
	// ErrMalformed marks bytes that do not parse as a protocol message.
	ErrMalformed = errors.New("fabric: malformed message")
)

// ErrNoWorkers reports a Run with no transport to lease variants over.
var ErrNoWorkers = errors.New("fabric: no workers")

// ProtocolError reports a well-formed message that violates the protocol:
// an unknown message type, a version mismatch, a lease for a variant the
// worker computed a different canonical key for.
type ProtocolError struct {
	Reason string
}

func (e *ProtocolError) Error() string { return "fabric: protocol error: " + e.Reason }

// Message types. The coordinator sends hello, lease, state and shutdown; a
// worker sends ready, event, fetch, reject, put, result and failed.
const (
	// MsgHello opens a session: protocol version, the spec document the
	// sweep runs, and an optional series-bucket override.
	MsgHello = "hello"
	// MsgReady answers hello: the worker compiled the document and reports
	// its variant count and canonical-key digest for skew detection.
	MsgReady = "ready"
	// MsgLease grants one variant: its grid index and canonical key.
	MsgLease = "lease"
	// MsgEvent streams one runner lifecycle event back to the coordinator.
	MsgEvent = "event"
	// MsgResult returns a finished variant's row.
	MsgResult = "result"
	// MsgFailed returns a variant whose execution errored or panicked.
	MsgFailed = "failed"
	// MsgFetch asks the coordinator's state cache for a prepared snapshot.
	MsgFetch = "fetch"
	// MsgState answers fetch and reject: the encoded snapshot, or a miss
	// delegating the build to the asking worker.
	MsgState = "state"
	// MsgReject returns the state the last fetch served because it does not
	// decode, with the decode error. The coordinator evicts it and answers
	// with state, as to a fetch.
	MsgReject = "reject"
	// MsgPut publishes a locally built snapshot to the coordinator's cache.
	MsgPut = "put"
	// MsgShutdown ends the session; the worker exits its serve loop.
	MsgShutdown = "shutdown"
)

// Msg is the wire envelope: one frame per message, the unused fields of
// each type left empty. A single envelope keeps the codec trivially
// fuzzable — any well-formed JSON object decodes, and validation happens at
// the protocol layer where the reply can say what was wrong.
type Msg struct {
	Type string `json:"type"`

	// Handshake (hello/ready).
	Version      int             `json:"version,omitempty"`
	Spec         json.RawMessage `json:"spec,omitempty"`
	SeriesBucket int64           `json:"series_bucket,omitempty"` // ns
	Count        int             `json:"count,omitempty"`
	Sum          string          `json:"sum,omitempty"`

	// Lease identity (lease/result/failed/event).
	Index int    `json:"index"`
	Key   string `json:"key,omitempty"` // also fetch/state/put

	// Event payload. Kind is never omitempty: EventVariantQueued is the
	// zero kind and must survive the round trip.
	Kind     experiment.EventKind `json:"kind"`
	Variant  string               `json:"variant,omitempty"`
	Variants int                  `json:"variants,omitempty"`
	Wall     int64                `json:"wall,omitempty"` // ns; also result

	// Failure payload (failed; also event error text and reject's decode
	// error).
	Error string `json:"error,omitempty"`
	Panic bool   `json:"panic,omitempty"`

	// Result payload.
	Row *experiment.Row `json:"row,omitempty"`

	// State transfer (state/put). Data is not part of the JSON header: the
	// frame carries it raw after the header. A Data slice Recv returns is
	// the receiver's to keep; no later Recv reuses its bytes.
	Miss bool   `json:"miss,omitempty"`
	Data []byte `json:"-"`
}

// knownTypes gates Recv: a type outside the protocol is a ProtocolError.
var knownTypes = map[string]bool{
	MsgHello: true, MsgReady: true, MsgLease: true, MsgEvent: true,
	MsgResult: true, MsgFailed: true, MsgFetch: true, MsgState: true,
	MsgReject: true, MsgPut: true, MsgShutdown: true,
}

// wireFormat frames every message. A frame of another version is a
// *ProtocolError; bad magic, a checksum mismatch and trailing payload bytes
// are ErrMalformed.
var wireFormat = binfmt.Format{Magic: "EGTWIRE", Version: ProtoVersion,
	ErrMagic: ErrMalformed, ErrVersion: errWireVersion, ErrTruncated: ErrTruncated, ErrCorrupt: ErrMalformed}

var errWireVersion = &ProtocolError{Reason: "wire version mismatch"}

// keepFrame is the largest buffer a Codec keeps for its next message: a
// state transfer's frame is dropped once sent or received rather than held
// for a session of leases.
const keepFrame = 64 << 10

// Codec frames Msg values over a byte stream. Sends are serialized by an
// internal mutex so a worker's variant goroutine and its reply paths can
// share one connection; Recv is single-consumer.
type Codec struct {
	r    *bufio.Reader
	rbuf []byte        // Recv's frame buffer, kept until a message's Data takes it
	hr   bytes.Reader  // Recv's JSON header
	dec  *json.Decoder // reads hr; kept across messages, dropped after an error
	in   Msg           // Recv's decode target

	wmu  sync.Mutex
	w    io.Writer
	hdr  bytes.Buffer
	enc  *json.Encoder // writes hdr
	out  Msg           // Send's encode source
	head []byte        // Send's payload ahead of Data
	wbuf []byte        // Send's frame buffer
}

// NewCodec wraps a read and a write stream (often the same connection).
func NewCodec(r io.Reader, w io.Writer) *Codec {
	c := &Codec{r: bufio.NewReader(r), w: w}
	c.enc = json.NewEncoder(&c.hdr)
	return c
}

// Send writes one message as a single frame: its JSON header, then Data.
func (c *Codec) Send(m Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.hdr.Reset()
	c.out = m
	err := c.enc.Encode(&c.out)
	c.out = Msg{}
	if err != nil {
		return fmt.Errorf("fabric: send %s: %w", m.Type, err)
	}
	js := bytes.TrimSuffix(c.hdr.Bytes(), []byte{'\n'})
	head := append(binary.AppendUvarint(c.head[:0], uint64(len(js))), js...)
	c.head = binary.AppendUvarint(head, uint64(len(m.Data)))
	b, err := wireFormat.WriteFrame(c.w, c.wbuf, c.head, m.Data)
	if cap(b) <= keepFrame {
		c.wbuf = b
	}
	if err != nil {
		return fmt.Errorf("fabric: send %s: %w", m.Type, err)
	}
	return nil
}

// Recv reads the next message. A clean end of stream is io.EOF; a stream
// ending mid-frame is ErrTruncated; a frame that fails its checks or whose
// header does not parse is ErrMalformed; a frame of another protocol
// version — including a version 1 peer's NDJSON line — or a message of
// unknown type is a *ProtocolError. No input can make Recv panic, and no
// claimed length makes it allocate for bytes that have not arrived; the fuzz
// and bound tests pin that.
func (c *Codec) Recv() (Msg, error) {
	if b, err := c.r.Peek(1); err == nil && b[0] == '{' {
		return Msg{}, &ProtocolError{Reason: fmt.Sprintf(
			"peer speaks protocol 1 (NDJSON), this end protocol %d", ProtoVersion)}
	}
	r, buf, err := wireFormat.ReadFrame(c.r, c.rbuf)
	c.rbuf = buf
	if err != nil {
		return Msg{}, err
	}
	hdr, data := r.Raw(), r.Raw()
	if err := r.Done(); err != nil {
		return Msg{}, err
	}
	if err := c.decodeHeader(hdr); err != nil {
		return Msg{}, fmt.Errorf("%w: header: %v", ErrMalformed, err)
	}
	m := c.in
	if !knownTypes[m.Type] {
		return m, &ProtocolError{Reason: fmt.Sprintf("unknown message type %q", m.Type)}
	}
	if len(data) > 0 {
		m.Data = data[:len(data):len(data)]
		c.rbuf = nil // the message keeps the frame's buffer
	} else if cap(buf) > keepFrame {
		c.rbuf = nil
	}
	return m, nil
}

// decodeHeader decodes one JSON header, exactly one object, into c.in. The
// decoder persists so its scratch state is not rebuilt for every message.
func (c *Codec) decodeHeader(hdr []byte) error {
	c.hr.Reset(hdr)
	if c.dec == nil {
		c.dec = json.NewDecoder(&c.hr)
	}
	c.in = Msg{}
	start := c.dec.InputOffset()
	err := c.dec.Decode(&c.in)
	if n := c.dec.InputOffset() - start; err == nil && n != int64(len(hdr)) {
		err = fmt.Errorf("%d bytes after the header's first %d", int64(len(hdr))-n, n)
	}
	if err != nil {
		c.dec = nil // it may hold the rest of this header
	}
	return err
}
