// Package resultstore persists simulated scenario results in a
// content-addressed on-disk store, keyed by a canonical config hash of
// every input that determines the outcome (workload content, unit count,
// latency, policy specifier, feature flags, schema version).
//
// The store is the simulator practicing what it simulates: the paper's
// replacement technique avoids redoing reconfiguration work whose result
// is already resident, and the store avoids redoing simulation work whose
// result is already on disk. A sweep re-run with an overlapping grid
// serves the unchanged scenarios from the store and only simulates the
// new ones; internal/sweep guarantees the warm results are byte-identical
// to a cold run.
//
// Persistence is pluggable: a Store is semantics (key validation,
// schema stamping and invalidation, hit/miss accounting, the GC
// predicate) over a byte-level Backend. Three backends ship — the
// default filesystem layout (DIR/objects/<k0k1>/<key>.json, atomic
// temp+rename writes, the merge substrate for sharded multi-host
// sweeps), an in-memory map (tests, ephemeral CI), and the single-file
// campaign database (internal/campdb) behind the `sqlite:FILE.db`
// locator scheme. internal/storetest runs the shared conformance suite
// against all of them; internal/backendurl parses the CLI locator
// syntax shared with -coord.
//
// Invalidation: every entry records the SchemaVersion it was written
// under — inside the entry, deliberately not in the key (since schema
// v2). A version bump makes old entries unservable (Get treats them as
// misses — they can never poison a report) without moving them, so
// re-simulation overwrites them in place and GC deletes whatever
// remains, along with entries that fail to decode or whose recorded key
// does not match their filename.
//
// Entries additionally record the measured wall time of their simulation
// (elapsed_ns, schema v2). It is trace and operator metadata, never part
// of the result: reports never see it and dispatch does not read it.
//
// Schema history: v2 added elapsed_ns and took the schema out of the
// keys; v3 stores each run's completions as a delta-varint blob (see
// Completions) instead of an array of integers, which cut a 2000-app
// entry from ~37 KB to ~9.5 KB and with it the cost of every decode; v4
// drops the embedded ideal baseline (see SchemaVersion).
//
// Two lookups with two accounting rules: Get serves a full entry and
// counts a hit or a miss; Probe serves identically but counts only the
// hit — it is what watch-mode merges poll while remote shards are still
// populating, where "not here yet" is not a miss.
package resultstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/backendurl"
)

// SchemaVersion identifies the entry layout and the config-hash recipe.
// Bump it whenever either changes: the Entry fields, the serialized
// subset of a run result, or the set of inputs folded into scenario keys
// (see internal/sweep's golden hash test). Old entries then read as
// misses and `rtrsim -store-gc` reclaims them.
//
// Since version 2 the schema version lives only inside the entry, not in
// the config-hash key: a bump makes every old entry unservable (Get
// rejects it) without moving it to a different path, so the
// re-simulation overwrites it in place — no orphaned files.
//
// v2: entries gained the measured ElapsedNS timing and keys stopped
// folding in the schema version.
//
// v3: Run.Completions is encoded as one base64 string of zigzag varint
// deltas over their GCD (see Completions), not a JSON integer array. A
// v2 entry no longer decodes as a result, so it reads as a miss, is
// re-simulated and overwritten in place, and `-store-gc` removes any
// leftover.
//
// v4: Entry.Ideal is gone; a baseline's only copy is its IdealKind
// artifact, written before the first entry it normalizes and read by
// every hit. v3 entries miss and are overwritten in place; GC removes
// them and IdealKind artifacts of other versions.
//
// Strictly-additive optional fields do NOT bump the version: ElapsedNS
// landed inside v2, and the retry metadata (Attempts, LastError,
// RetriedAtNS) followed the same pattern — old entries decode with the
// zero values and stay servable, because reports never read these
// fields.
const SchemaVersion = 4

// Store is a content-addressed result store over a Backend. The zero
// value is not usable; call Open (fs), OpenMem, OpenSQLite, OpenURL,
// or FromBackend. A Store is safe for concurrent use.
type Store struct {
	b Backend

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64

	artHits   atomic.Int64
	artMisses atomic.Int64
	artPuts   atomic.Int64

	writeFailures atomic.Int64
	firstWriteErr atomic.Pointer[string]
}

var errInvalidDir = errors.New("resultstore: empty store directory")

// OpenIfSet resolves the CLI store flags: a nil Store (run without one)
// when the locator is empty or the store is disabled, an opened store
// otherwise. The locator takes the -store flag's backend syntax: a
// bare directory (the fs default), fs:DIR, mem:, sqlite:FILE.db, or an
// http(s)://HOST/c/ID campaign hosted by rtrserved (opts tunes the
// wire client — token, timeout; at most one may be passed).
func OpenIfSet(locator string, disabled bool, opts ...backendurl.HTTPOptions) (*Store, error) {
	if disabled || locator == "" {
		return nil, nil
	}
	return OpenURL("-store", locator, opts...)
}

// OpenURL opens the store named by a backend locator (see
// internal/backendurl), attributing parse errors to the given flag.
func OpenURL(flag, locator string, opts ...backendurl.HTTPOptions) (*Store, error) {
	loc, err := backendurl.Parse(flag, locator)
	if err != nil {
		return nil, err
	}
	switch loc.Scheme {
	case backendurl.SchemeMem:
		return OpenMem(), nil
	case backendurl.SchemeSQLite:
		return OpenSQLite(loc.Path)
	case backendurl.SchemeHTTP, backendurl.SchemeHTTPS:
		var o backendurl.HTTPOptions
		if len(opts) > 0 {
			o = opts[0]
		}
		b, err := backendurl.NewHTTPStore(loc, o)
		if err != nil {
			return nil, err
		}
		return FromBackend(b), nil
	default:
		return Open(loc.Path)
	}
}

// The wire backend implements the Backend contract structurally —
// backendurl cannot import this package — so pin it here.
var _ Backend = (*backendurl.HTTPStore)(nil)

// Open creates (if needed) and opens the filesystem store rooted at dir.
func Open(dir string) (*Store, error) {
	b, err := NewFS(dir)
	if err != nil {
		return nil, err
	}
	return FromBackend(b), nil
}

// OpenMem opens a fresh in-memory store (dies with the process).
func OpenMem() *Store { return FromBackend(NewMem()) }

// OpenSQLite opens the store bucket of the single-file campaign
// database at path, creating the file if needed.
func OpenSQLite(path string) (*Store, error) {
	if path == "" {
		return nil, errInvalidDir
	}
	b, err := NewSQLite(path)
	if err != nil {
		return nil, err
	}
	return FromBackend(b), nil
}

// FromBackend wraps an existing backend in a Store with fresh
// counters. Two Stores over one backend share data but not stats —
// exactly what reopening a store directory always meant.
func FromBackend(b Backend) *Store { return &Store{b: b} }

// Backend exposes the persistence substrate, for conformance tooling
// (internal/storetest rewrites raw entries through it) and for callers
// that need to share one backend across Store handles.
func (s *Store) Backend() Backend { return s.b }

// Dir returns the store's location: the root directory for the fs
// backend, the locator ("mem:", "sqlite:FILE") otherwise. The name is
// historical; treat it as a display string, not necessarily a path.
func (s *Store) Dir() string { return s.b.Location() }

// keyLen is the length of a canonical key: lowercase hex SHA-256.
const keyLen = 64

// validKey gates every lookup and write: canonical keys only, so no
// backend ever sees a key it could mistake for a path escape.
func validKey(key string) error {
	if len(key) != keyLen || strings.ContainsAny(key, "/\\.") {
		return fmt.Errorf("resultstore: malformed key %q", key)
	}
	return nil
}

// Get looks the key up. A missing, undecodable, wrong-schema or
// wrong-key entry is a miss, never an error: the store degrades to
// re-simulation, it does not fail a sweep. The returned Entry is owned by
// the caller.
func (s *Store) Get(key string) (*Entry, bool) {
	e, ok := s.get(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e, true
}

// Probe is Get for pollers: a present, servable entry is decoded and
// counted as a hit exactly like Get, but an absent (or unservable) one
// counts nothing. Watch-mode merges poll it while remote shards are
// still populating the store — repeatedly observing "not here yet" is
// not a miss, and the serve that eventually follows is the scenario's
// only counted lookup, so a watch merge still digests 100% hits with
// one file read per poll.
func (s *Store) Probe(key string) (*Entry, bool) {
	e, ok := s.get(key)
	if !ok {
		return nil, false
	}
	s.hits.Add(1)
	return e, true
}

// get decodes a servable entry, counting nothing.
func (s *Store) get(key string) (*Entry, bool) {
	if validKey(key) != nil {
		return nil, false
	}
	data, ok := s.b.Load(key)
	if !ok {
		return nil, false
	}
	return decodeServable(key, data)
}

// decodeServable is the single definition of "this entry may be
// served": it decodes, carries the current schema version, records the
// key it is filed under, and holds a run. Get, Probe and GC all
// delegate here, so invalidation can never drift between serving and
// collection — on any backend.
func decodeServable(key string, data []byte) (*Entry, bool) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Schema != SchemaVersion || e.Key != key || e.Run == nil {
		return nil, false
	}
	return &e, true
}

// Put writes the entry under key, stamping the current schema version and
// the key into it. The write is atomic (temp file + rename), so a
// concurrent Get sees either the old entry or the new one, never a torn
// file. Failures are additionally recorded on the store (see
// SummaryLine): a full or read-only store directory must degrade to
// re-simulation on the next run, never lose a computed sweep.
func (s *Store) Put(key string, e *Entry) error {
	if err := s.put(key, e); err != nil {
		s.writeFailures.Add(1)
		msg := err.Error()
		s.firstWriteErr.CompareAndSwap(nil, &msg)
		return err
	}
	s.puts.Add(1)
	return nil
}

func (s *Store) put(key string, e *Entry) error {
	if err := validKey(key); err != nil {
		return err
	}
	e.Schema = SchemaVersion
	e.Key = key
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("resultstore: encode %s: %w", key, err)
	}
	return s.b.Store(key, data)
}

// Stats reports the cumulative lookup and write counters since Open.
func (s *Store) Stats() (hits, misses, puts int64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load()
}

// SummaryLine renders the counters as the one-line digest the CLIs print
// (to stderr, so stored-result reports stay byte-identical on stdout).
// Degraded writes are appended so a full or read-only store directory is
// visible even though it never fails a run.
func (s *Store) SummaryLine() string {
	hits, misses, puts := s.Stats()
	line := fmt.Sprintf("result store: %d hits, %d misses, %d entries written (%s)",
		hits, misses, puts, s.Dir())
	if ah, am, ap := s.ArtifactStats(); ah+am+ap > 0 {
		line += fmt.Sprintf("; artifacts: %d hits, %d misses, %d written", ah, am, ap)
	}
	if fails := s.writeFailures.Load(); fails > 0 {
		line += fmt.Sprintf("; %d writes FAILED (first: %s)", fails, *s.firstWriteErr.Load())
	}
	return line
}

// RunGC is the CLIs' shared -store-gc entry point: it garbage-collects
// the store and returns the printable one-line digest (which the CI
// determinism gate greps — keep the format stable). A nil store is the
// flag-resolution error.
func RunGC(s *Store) (string, error) {
	if s == nil {
		return "", errors.New("-store-gc needs a store directory (-store DIR or $RTR_STORE)")
	}
	st, err := s.GC()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("store gc: removed %d stale entries, kept %d (%s)",
		st.Removed, st.Kept, s.Dir()), nil
}

// GCStats summarizes one garbage collection pass.
type GCStats struct {
	// Kept is the number of valid entries left in place: current-schema
	// results plus servable design-time artifacts.
	Kept int
	// Removed is the number of files deleted: stale-schema entries,
	// undecodable files, entries whose key does not match their filename,
	// and leftover temp files from interrupted writes.
	Removed int
}

// GC walks the store and deletes every entry that the current code
// could never serve: wrong schema version, undecodable bytes, or a
// recorded key that does not match the key it is filed under. An entry
// survives when it is servable either as a result (decodeServable) or
// as a design-time artifact (decodeArtifactServable) — the two
// envelopes share the key space, and a result-schema bump must not
// throw away design-time work — except an IdealKind artifact of another
// SchemaVersion, a stale Run. Backend junk (leftover temp files and the
// like) is swept too and counted in Removed.
func (s *Store) GC() (GCStats, error) {
	var st GCStats
	var stale []string
	junk, err := s.b.Visit(func(key string, data []byte) error {
		if _, ok := decodeServable(key, data); ok {
			st.Kept++
			return nil
		}
		if a, ok := decodeArtifactServable(key, data); ok && (a.Kind != IdealKind || a.KindVersion == SchemaVersion) {
			st.Kept++
			return nil
		}
		stale = append(stale, key)
		return nil
	})
	st.Removed += junk
	if err != nil {
		return st, fmt.Errorf("resultstore: gc: %w", err)
	}
	for _, key := range stale {
		if err := s.b.Delete(key); err != nil {
			return st, fmt.Errorf("resultstore: gc: %w", err)
		}
		st.Removed++
	}
	return st, nil
}
