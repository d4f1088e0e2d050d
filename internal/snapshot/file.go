package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically writes the encoded state to path.
func WriteFile(path string, ds *DeviceState) error {
	return WriteRawFile(path, Encode(ds))
}

// WriteRawFile atomically writes already-encoded snapshot bytes: they land
// in a temporary sibling first, so a crash mid-write never leaves a
// truncated snapshot where a valid one is expected (state caches tolerate
// missing files, not half files). The sibling's name is unique to the call,
// so concurrent writers of one path — two processes sharing a cache
// directory — each rename a complete file; the last rename wins.
func WriteRawFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	_, err = f.Write(data)
	// CreateTemp's 0600 would hide a shared cache's entries from its other users.
	if err = errors.Join(err, f.Chmod(0o644), f.Close()); err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// ReadFile decodes a snapshot file written by WriteFile.
func ReadFile(path string) (*DeviceState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return Decode(data)
}
