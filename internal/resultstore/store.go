package resultstore

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// segExt is the segment file suffix; everything else in the directory is
// ignored (editor droppings, the temp files of an in-flight append).
const segExt = ".etres"

// Store is an append-only result archive: a directory of immutable columnar
// segment files. Opens are cheap (no index to load); every Append writes one
// new segment atomically, so concurrent appenders — parallel sweeps, CI jobs
// sharing a results directory — never corrupt or interleave each other's
// rows.
type Store struct {
	dir string

	mu   sync.Mutex
	next int // the sequence number the next Append tries first; 0 until the directory is listed
}

// Open opens (creating if needed) the result store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// seq returns the sequence number in a segment name "seg-N.etres", or 0 for
// a name without one.
func seq(name string) int {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), segExt))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Segments lists the store's segment files in append order: by sequence
// number, then by name (a segment file named without a number sorts first).
func (s *Store) Segments() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segExt) {
			segs = append(segs, e.Name())
		}
	}
	slices.SortFunc(segs, func(a, b string) int {
		return cmp.Or(cmp.Compare(seq(a), seq(b)), strings.Compare(a, b))
	})
	return segs, nil
}

// Append persists rows as one new segment. The write is atomic and
// collision-free: the encoded segment lands in a temporary file first, then
// links into place under the next free sequence number — a crash leaves no
// partial segment, and two concurrent appenders allocate distinct numbers.
// Appending no rows is a no-op.
func (s *Store) Append(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	tmp, err := os.CreateTemp(s.dir, "append-*.tmp")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	e := encoders.Get().(*enc)
	_, err = tmp.Write(e.segment(rows))
	encoders.Put(e)
	if err != nil {
		tmp.Close()
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return s.link(tmp.Name())
}

// link links the written segment tmp into place under the next free sequence
// number. The store lists its directory once, at its first append, and
// counts up from the last number there.
func (s *Store) link(tmp string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == 0 {
		segs, err := s.Segments()
		if err != nil {
			return err
		}
		s.next = 1
		if len(segs) > 0 {
			s.next = seq(segs[len(segs)-1]) + 1
		}
	}
	// os.Link fails when the target exists, so losing a race to another
	// appender is detected, not overwritten; claim the next number instead.
	for attempt := 0; ; attempt++ {
		err := os.Link(tmp, filepath.Join(s.dir, fmt.Sprintf("seg-%06d%s", s.next, segExt)))
		s.next++
		if err == nil {
			return nil
		}
		if !os.IsExist(err) {
			return fmt.Errorf("resultstore: %w", err)
		}
		if attempt > 1<<20 {
			return fmt.Errorf("resultstore: cannot allocate a segment number after %d attempts: %w", attempt, err)
		}
	}
}

// headerPeek is how much of a segment Rows reads to learn its row count; the
// header of this schema (magic, version, column names and kinds, row count)
// takes well under it (TestSegmentHeaderFitsThePeek).
const headerPeek = 4 << 10

// Rows reads every segment and returns their rows concatenated in segment
// order. It first reads each segment's header for its row count, so the
// result is allocated once at its exact size; it then reads each segment
// whole, once, into one buffer sized for the largest, verifies it (checksum,
// schema, row count) and decodes it straight into its part of the result.
// String cells are interned across segments: a value repeated in every
// segment is allocated once. A segment that fails to decode is a typed error
// naming the file.
func (s *Store) Rows() ([]Row, error) {
	segs, err := s.Segments()
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(segs))
	total, largest := 0, 0
	var buf []byte
	for i, seg := range segs {
		var size int
		if buf, size, err = s.read(seg, buf, headerPeek); err != nil {
			return nil, err
		}
		n := peekRows(buf, size)
		counts[i], total, largest = n, total+n, max(largest, size)
	}
	rows := make([]Row, total)
	if cap(buf) < largest {
		buf = make([]byte, 0, largest)
	}
	d := dec{strs: make(map[string]string)}
	at := 0
	for i, seg := range segs {
		if buf, _, err = s.read(seg, buf, math.MaxInt); err != nil {
			return nil, err
		}
		if err := d.open(buf); err != nil {
			return nil, fmt.Errorf("resultstore: segment %s: %w", seg, err)
		}
		if d.nrows != counts[i] { // the file changed since its head was read
			return nil, fmt.Errorf("resultstore: segment %s: %w: header read %d rows, verified segment holds %d",
				seg, ErrCorrupt, counts[i], d.nrows)
		}
		if err := d.columns(rows[at : at+d.nrows]); err != nil {
			return nil, fmt.Errorf("resultstore: segment %s: %w", seg, err)
		}
		at += d.nrows
	}
	return rows, nil
}

// read reads at most limit bytes of the named segment into buf, growing it
// only when it is too small, and returns them with the file's size.
func (s *Store) read(seg string, buf []byte, limit int) ([]byte, int, error) {
	f, err := os.Open(filepath.Join(s.dir, seg))
	if err != nil {
		return buf, 0, fmt.Errorf("resultstore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf, 0, fmt.Errorf("resultstore: %w", err)
	}
	size := int(fi.Size())
	n := min(size, limit)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(f, buf); err != nil {
		return buf, size, fmt.Errorf("resultstore: segment %s: %w: %w", seg, ErrTruncated, err)
	}
	return buf, size, nil
}
