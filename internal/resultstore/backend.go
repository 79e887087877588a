package resultstore

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Backend is the persistence substrate under a Store: a byte-level
// key→value map with enumeration. Everything that makes the store a
// *result* store — key validation, schema stamping and invalidation,
// hit/miss/put accounting, the GC keep-predicate — lives in Store and
// is therefore identical across backends; a backend only moves bytes.
// internal/storetest runs the shared conformance suite against every
// registered backend, which is what makes a new backend correct: it
// passes the suite, it does not resemble the FS code.
//
// Implementations must be safe for concurrent use, and Store must be
// atomic with respect to Load: a concurrent reader sees the old value
// or the new one, never a torn mix.
type Backend interface {
	// Load returns the bytes under key, or ok=false if absent or
	// unreadable (the store degrades to re-simulation, it never fails
	// a sweep on a read).
	Load(key string) ([]byte, bool)
	// Store atomically writes data under key, overwriting.
	Store(key string, data []byte) error
	// Visit enumerates every stored (key, value) pair, additionally
	// reporting how many junk artifacts (e.g. leftover temp files)
	// it swept away; GC adds that to its removed count.
	Visit(fn func(key string, data []byte) error) (junk int, err error)
	// Delete removes key; deleting an absent key is not an error.
	Delete(key string) error
	// Location names where the data lives, for digests and error
	// messages: the root directory for fs, "mem:", the campaign URL for http.
	Location() string
}

// fsBackend is the default backend and the historical on-disk format:
// DIR/objects/<k0k1>/<key>.json, one file per entry, fanned out on the
// first two hex digits of the key. Writes go through a temp file plus
// rename, so concurrent writers (including separate processes sharing
// one store directory over any filesystem that renames atomically)
// never expose a torn entry — which is what makes the store the merge
// substrate for sharded multi-host sweeps.
type fsBackend struct {
	dir string
}

// NewFS returns the filesystem backend rooted at dir, creating the
// objects/ tree if needed.
func NewFS(dir string) (Backend, error) {
	if dir == "" {
		return nil, errInvalidDir
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &fsBackend{dir: dir}, nil
}

// path maps a (pre-validated) key to its entry file.
func (b *fsBackend) path(key string) string {
	return filepath.Join(b.dir, "objects", key[:2], key+".json")
}

func (b *fsBackend) Load(key string) ([]byte, bool) {
	data, err := readFile(b.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

func (b *fsBackend) Store(key string, data []byte) error {
	p := b.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key[:8]+"-*.tmp")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: write %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: commit %s: %w", key, err)
	}
	return nil
}

func (b *fsBackend) Visit(fn func(key string, data []byte) error) (int, error) {
	junk := 0
	root := filepath.Join(b.dir, "objects")
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(p, ".tmp") {
			if os.Remove(p) == nil {
				junk++
			}
			return nil
		}
		key := strings.TrimSuffix(filepath.Base(p), ".json")
		if len(key) != keyLen || strings.ContainsAny(key, "/\\.") || b.path(key) != p {
			// A file whose name is not a well-formed key at its own
			// fanout path can never be served or addressed by key;
			// sweep it here so Delete(key) stays path-consistent.
			if os.Remove(p) == nil {
				junk++
			}
			return nil
		}
		data, err := readFile(p)
		if err != nil {
			// Unreadable entry: surface it as undecodable so the GC
			// predicate deletes it rather than silently skipping.
			data = nil
		}
		return fn(key, data)
	})
	return junk, err
}

func (b *fsBackend) Delete(key string) error {
	err := os.Remove(b.path(key))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (b *fsBackend) Location() string { return b.dir }
