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
//
// What a path checks depends on whether it restores. Fetch and Get — the
// Runner's path — decode every state they load from disk or a remote store
// before they trust it, and keep that decode. Peek and Put — a store that
// only serves states to other processes — check the seal alone
// (snapshot.CheckSeal: magic, version, CRC32), so a state is decoded once,
// where it is restored; a consumer that cannot decode what it was served
// evicts it (Evict). A Fetch of an entry Peek or Put admitted decodes it on
// first use and fails with the decode error if it does not decode.
type StateCache struct {
	dir string

	// remoteFetch, when set, is consulted between the disk store and a local
	// build: a distributed-sweep worker points it at its coordinator, so one
	// process's preparation serves every worker's variants. publish mirrors a
	// locally built state back to that remote store, best-effort. reject
	// returns a fetched state that does not decode and asks again.
	remoteFetch  func(key string) ([]byte, error)
	publish      func(key string, data []byte)
	remoteReject func(key string, cause error) ([]byte, error)

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
		if e.data, e.ds = c.loadRemote(key); e.data != nil {
			c.saveDisk(key, e.data)
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

// loadRemote fetches key from the remote store and decodes it, the one
// structural check a fetched state gets. Bytes that do not decode are
// rejected back once: the remote store drops them and answers again, usually
// with a miss that hands this process the build. A remote miss, a remote
// failure and a second answer that does not decode all fall through to the
// local build: the remote store is an accelerator, never a dependency, never
// trusted unverified.
func (c *StateCache) loadRemote(key string) ([]byte, *snapshot.DeviceState) {
	data, err := c.remoteFetch(key)
	if err != nil || data == nil {
		return nil, nil
	}
	ds, err := decodeState(data)
	if err != nil && c.remoteReject != nil {
		if data, err = c.remoteReject(key, err); err == nil && data != nil {
			ds, err = decodeState(data)
		}
	}
	if err != nil || data == nil {
		return nil, nil
	}
	return data, ds
}

// SetRemote attaches a secondary store consulted between the disk cache and
// a local build. fetch returns the encoded snapshot for a key, or (nil, nil)
// on a remote miss; the cache validates what it returns by decoding it.
// publish (optional) is handed every locally built state. reject (optional)
// is called when a fetched state does not decode, with the decode error: it
// tells the remote store, which drops the state, and answers as fetch does.
// Set it before the cache is shared across goroutines — the fields are not
// synchronized.
func (c *StateCache) SetRemote(fetch func(key string) ([]byte, error), publish func(key string, data []byte),
	reject func(key string, cause error) ([]byte, error)) {
	c.remoteFetch = fetch
	c.publish = publish
	c.remoteReject = reject
}

// Peek returns the encoded snapshot for key if it is already present in
// memory or on disk, without building and without consulting the remote
// store. A key whose build is in flight counts as present: Peek waits for it,
// so a coordinator serving concurrent workers never races a local build.
// A disk hit is admitted on its seal alone (snapshot.CheckSeal), not
// decoded: Peek serves states to the processes that restore them, and those
// decode in full.
func (c *StateCache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		data := c.readDisk(key)
		if data == nil || snapshot.CheckSeal(data) != nil {
			return nil, false
		}
		e, _ = c.admit(key, data) // no saveDisk: the file is where data came from
	}
	<-e.ready
	return e.data, e.err == nil
}

// Put admits an encoded snapshot received from another process — a worker's
// published build, say — on its seal alone (snapshot.CheckSeal), and returns
// the seal's error, storing nothing, when it fails. Put stores bytes proven
// intact since they were sealed; the process that restores them decodes
// them. An existing entry (even an in-flight build) wins: the first state
// bound to a key stays bound to it.
func (c *StateCache) Put(key string, data []byte) error {
	if err := snapshot.CheckSeal(data); err != nil {
		return err
	}
	if _, added := c.admit(key, data); added {
		c.saveDisk(key, data)
	}
	return nil
}

// Evict drops key's entry from memory and from disk if it still holds data —
// the slice Peek or Fetch returned, compared by identity, not content — and
// reports whether it did. A consumer that could not decode what the cache
// served evicts it, so the next Peek or Fetch misses. An entry a rebuild has
// already replaced, and a build in flight, are kept.
func (c *StateCache) Evict(key string, data []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	select {
	case <-e.ready:
	default:
		return false
	}
	if len(e.data) != len(data) || len(data) == 0 || &e.data[0] != &data[0] {
		return false
	}
	delete(c.entries, key)
	if c.dir != "" {
		// Under c.mu, so no Peek reads the file between the two deletions.
		_ = os.Remove(c.path(key))
	}
	return true
}

// admit binds data to key unless the key is already bound, and returns the
// bound entry and whether it is the new one.
func (c *StateCache) admit(key string, data []byte) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &cacheEntry{ready: make(chan struct{}), data: data}
	close(e.ready)
	c.entries[key] = e
	return e, true
}

// path maps a key to a stable filename; keys are long canonical
// configuration strings, so they are hashed rather than sanitized.
func (c *StateCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".state")
}

// readDisk returns the stored bytes for key, or nil when the cache is
// memory-only or the file is missing or unreadable.
func (c *StateCache) readDisk(key string) []byte {
	if c.dir == "" {
		return nil
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil
	}
	return data
}

// loadDisk returns the stored bytes for key and the decode that validated
// them, or nils when there are none or they do not decode — a corrupt entry
// silently falls back to rebuilding.
func (c *StateCache) loadDisk(key string) ([]byte, *snapshot.DeviceState) {
	data := c.readDisk(key)
	if data == nil {
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
