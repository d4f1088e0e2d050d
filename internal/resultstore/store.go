package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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

// Segments lists the store's segment files in name order — which is append
// order, since names carry a monotonic sequence number.
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
	sort.Strings(segs)
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
	data := EncodeSegment(rows)
	tmp, err := os.CreateTemp(s.dir, "append-*.tmp")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}

	segs, err := s.Segments()
	if err != nil {
		return err
	}
	next := 1
	if len(segs) > 0 {
		last := strings.TrimSuffix(strings.TrimPrefix(segs[len(segs)-1], "seg-"), segExt)
		if n, perr := strconv.Atoi(last); perr == nil && n >= next {
			next = n + 1
		}
	}
	// os.Link fails when the target exists, so losing a race to another
	// appender is detected, not overwritten; claim the next number instead.
	for attempt := 0; ; attempt++ {
		name := filepath.Join(s.dir, fmt.Sprintf("seg-%06d%s", next, segExt))
		err := os.Link(tmp.Name(), name)
		if err == nil {
			return nil
		}
		if !os.IsExist(err) {
			return fmt.Errorf("resultstore: %w", err)
		}
		if attempt > 1<<20 {
			return fmt.Errorf("resultstore: cannot allocate a segment number after %d attempts: %w", attempt, err)
		}
		next++
	}
}

// Rows reads every segment and returns their rows concatenated in segment
// order. Every segment is read and checked (checksum, schema, row count)
// before the result is allocated, once; each then decodes straight into its
// part of it. A segment that fails to decode is a typed error naming the file.
func (s *Store) Rows() ([]Row, error) {
	segs, err := s.Segments()
	if err != nil {
		return nil, err
	}
	open := make([]*dec, len(segs))
	total := 0
	for i, seg := range segs {
		data, err := os.ReadFile(filepath.Join(s.dir, seg))
		if err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		if open[i], err = openSegment(data); err != nil {
			return nil, fmt.Errorf("resultstore: segment %s: %w", seg, err)
		}
		total += open[i].nrows
	}
	rows := make([]Row, 0, total)
	for i, d := range open {
		rows = rows[:len(rows)+d.nrows]
		if err := d.columns(rows[len(rows)-d.nrows:]); err != nil {
			return nil, fmt.Errorf("resultstore: segment %s: %w", segs[i], err)
		}
		open[i] = nil // the segment's bytes are garbage from here on
	}
	return rows, nil
}
