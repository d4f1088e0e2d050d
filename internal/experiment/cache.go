package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"

	"eagletree/internal/snapshot"
)

// StateCache deduplicates device preparation: one entry per distinct
// (preparation config, spec, seed) key, holding the encoded snapshot of the
// prepared stack. It is safe for concurrent use and deduplicates concurrent
// builds of the same key, so the parallel variant runner prepares each
// distinct state exactly once.
//
// With a directory attached the cache persists across processes: repeated
// sweeps over the same design space skip preparation entirely. Entries that
// fail to decode (truncated or corrupted files) are rebuilt and overwritten,
// never trusted.
type StateCache struct {
	dir string

	// remoteFetch, when set, is consulted between the disk store and a local
	// build: a distributed-sweep worker points it at its coordinator, so one
	// process's preparation serves every worker's variants. publish mirrors a
	// locally built state back to that remote store, best-effort.
	remoteFetch func(key string) ([]byte, error)
	publish     func(key string, data []byte)

	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	ready chan struct{} // closed once data/err (and ds, when validated) are set
	data  []byte
	err   error

	// The entry owns the one decoded form of data: the decode that validated
	// a disk or remote load, else one made on first use. It is immutable —
	// every variant restored from this key shares it (see core.Restore).
	decode sync.Once
	ds     *snapshot.DeviceState
	dsErr  error
}

// decodeState is snapshot.Decode, a variable so tests can count decodes.
var decodeState = snapshot.Decode

// state returns the entry's decoded snapshot; call it only after ready.
func (e *cacheEntry) state() (*snapshot.DeviceState, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.decode.Do(func() {
		if e.ds == nil {
			e.ds, e.dsErr = decodeState(e.data)
		}
	})
	return e.ds, e.dsErr
}

// NewStateCache returns a cache, disk-backed under dir when dir is non-empty
// (created on first save), memory-only otherwise.
func NewStateCache(dir string) *StateCache {
	return &StateCache{dir: dir, entries: make(map[string]*cacheEntry)}
}

// Len returns how many distinct keys the cache holds — the number of
// prepared device states built or loaded so far. Tests use it to prove two
// run paths hit the same entries.
func (c *StateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get returns the encoded snapshot for key, building (and memoizing) it on
// first use. Concurrent callers of the same key share one build.
func (c *StateCache) Get(key string, build func() ([]byte, error)) ([]byte, error) {
	data, _, err := c.Fetch(key, build)
	return data, err
}

// Fetch is Get with cache provenance: hit reports whether this call was
// served without running build — by an entry another caller already built
// (or is building; waiters share its result) or by the disk store. Failed
// builds are not memoized: the entry is removed once its waiters are
// released, so a later Fetch of the same key (a canceled preparation, say)
// builds again.
func (c *StateCache) Fetch(key string, build func() ([]byte, error)) (data []byte, hit bool, err error) {
	e, hit := c.fetch(key, build)
	return e.data, hit, e.err
}

// fetch is Fetch returning the entry, for callers that want its decoded state.
func (c *StateCache) fetch(key string, build func() ([]byte, error)) (*cacheEntry, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		return e, true
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	if e.data, e.ds = c.loadDisk(key); e.data == nil && c.remoteFetch != nil {
		// A remote miss, a remote failure and a payload that does not decode
		// all fall through to the local build: the remote store is an
		// accelerator, never a dependency, never trusted unverified.
		if data, err := c.remoteFetch(key); err == nil && data != nil {
			if ds, err := decodeState(data); err == nil {
				e.data, e.ds = data, ds
				c.saveDisk(key, data)
			}
		}
	}
	if e.data != nil {
		close(e.ready)
		return e, true
	}
	e.data, e.err = build()
	if e.err == nil {
		c.saveDisk(key, e.data)
		if c.publish != nil {
			c.publish(key, e.data)
		}
	}
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e, false
}

// SetRemote attaches a secondary store consulted between the disk cache and
// a local build. fetch returns the encoded snapshot for a key, or (nil, nil)
// on a remote miss; the cache validates what it returns by decoding it.
// publish (optional) is handed every locally built state.
// Set it before the cache is shared across goroutines — the fields are not
// synchronized.
func (c *StateCache) SetRemote(fetch func(key string) ([]byte, error), publish func(key string, data []byte)) {
	c.remoteFetch = fetch
	c.publish = publish
}

// Peek returns the encoded snapshot for key if it is already present in
// memory or on disk, without building and without consulting the remote
// store. A key whose build is in flight counts as present: Peek waits for it,
// so a coordinator serving concurrent workers never races a local build.
func (c *StateCache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		return e.data, e.err == nil
	}
	c.mu.Unlock()
	data, ds := c.loadDisk(key)
	if data == nil {
		return nil, false
	}
	c.admit(key, data, ds) // no saveDisk: the file is where data came from
	return data, true
}

// Put inserts an already-encoded snapshot — one received over a transport,
// say. An existing entry (even an in-flight build) wins: the first state
// bound to a key stays bound to it. The caller is responsible for having
// verified the payload (snapshot.Verify); Put stores bytes, not trust.
func (c *StateCache) Put(key string, data []byte) {
	if c.admit(key, data, nil) {
		c.saveDisk(key, data)
	}
}

// admit binds data — and its decoded form, when the caller has one — to key
// unless the key is already bound, and reports whether it did.
func (c *StateCache) admit(key string, data []byte, ds *snapshot.DeviceState) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &cacheEntry{ready: make(chan struct{}), data: data, ds: ds}
	close(e.ready)
	c.entries[key] = e
	return true
}

// path maps a key to a stable filename; keys are long canonical
// configuration strings, so they are hashed rather than sanitized.
func (c *StateCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".state")
}

// loadDisk returns the stored bytes for key and the decode that validated
// them, or nils when the cache is memory-only, the file is missing, or its
// content does not decode — a corrupt entry silently falls back to rebuilding.
func (c *StateCache) loadDisk(key string) ([]byte, *snapshot.DeviceState) {
	if c.dir == "" {
		return nil, nil
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, nil
	}
	ds, err := decodeState(data)
	if err != nil {
		return nil, nil
	}
	return data, ds
}

// saveDisk persists an entry, best-effort: an unwritable cache directory
// costs future runs the reuse but never fails the current one.
func (c *StateCache) saveDisk(key string, data []byte) {
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	_ = snapshot.WriteRawFile(c.path(key), data)
}
