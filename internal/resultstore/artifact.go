package resultstore

import (
	"encoding/json"
	"fmt"
)

// ArtifactSchemaVersion identifies the artifact envelope layout below.
// Bump it only when the envelope fields themselves change; a change to
// one artifact kind's payload bumps that kind's own version instead
// (GetArtifact rejects the mismatch as a miss, and the producer
// overwrites the entry in place — the same no-orphans invalidation rule
// results use).
const ArtifactSchemaVersion = 1

// retiredIdealKind tagged the ideal baselines older sweeps stored.
// Nothing reads or writes the kind any more; GC removes it.
const retiredIdealKind = "ideal-run"

// Artifact is the envelope for a persisted design-time artifact: the
// output of a phase that is a pure function of its inputs (mobility
// tables first — see internal/artifact), stored next to results in the
// same content-addressed key space so every backend (fs, mem, http)
// and every merge/GC tool carries artifacts for free.
//
// Artifacts and results share the key space but never the keys: an
// artifact key hashes a kind tag along with the inputs (domain
// separation), and the envelopes are mutually unservable — a result
// entry is not JSON, an artifact does not open with the entry magic —
// so Get can never serve an artifact as an outcome nor GetArtifact an
// outcome as an artifact.
type Artifact struct {
	// Schema is the envelope version, stamped by PutArtifact.
	Schema int `json:"artifact_schema"`
	// Key records the canonical key the artifact is filed under, stamped
	// by PutArtifact; a mismatch makes the entry unservable, exactly like
	// a result entry's recorded key.
	Key string `json:"key"`
	// Kind names the artifact type (e.g. "mobility-table"); the producer
	// defines it and GetArtifact requires an exact match.
	Kind string `json:"kind"`
	// KindVersion is the payload layout version of the Kind; a bump makes
	// old entries of the kind read as misses so they are recomputed and
	// overwritten in place.
	KindVersion int `json:"kind_version"`
	// Label is a human-readable summary for store tooling; never parsed.
	Label string `json:"label,omitempty"`
	// Payload is the kind-defined content.
	Payload json.RawMessage `json:"payload"`
}

// decodeArtifactServable is the single definition of "this artifact may
// be served": it decodes, carries the current envelope version, records
// the key it is filed under, and names a kind with a payload.
// GetArtifact and GC both delegate here, mirroring decodeServable for
// results. Artifact servability is deliberately independent of the
// result SchemaVersion: a result-schema bump re-simulates outcomes, it
// does not invalidate design-time work.
func decodeArtifactServable(key string, data []byte) (*Artifact, bool) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil ||
		a.Schema != ArtifactSchemaVersion || a.Key != key ||
		a.Kind == "" || len(a.Payload) == 0 {
		return nil, false
	}
	return &a, true
}

// GetArtifact looks up the artifact under key, requiring the given kind
// and kind version. Anything else — missing, undecodable, a result
// entry, wrong envelope schema, kind or version — is a miss, never an
// error: a consumer degrades to recomputing the artifact, it does not
// fail. Artifact lookups have their own hit/miss counters (see
// ArtifactStats); they never touch the result counters the determinism
// gates pin.
func (s *Store) GetArtifact(key, kind string, kindVersion int) (*Artifact, bool) {
	a, ok := s.getArtifact(key)
	if ok && a.Kind == kind && a.KindVersion == kindVersion {
		s.artHits.Add(1)
		return a, true
	}
	s.artMisses.Add(1)
	return nil, false
}

func (s *Store) getArtifact(key string) (*Artifact, bool) {
	if validKey(key) != nil {
		return nil, false
	}
	data, ok := s.b.Load(key)
	if !ok {
		return nil, false
	}
	return decodeArtifactServable(key, data)
}

// PutArtifact writes the artifact under key, stamping the envelope
// version and the key into it. Writes are atomic like result writes,
// and failures feed the same degraded-write accounting (SummaryLine): a
// full store loses warm starts, never correctness.
func (s *Store) PutArtifact(key string, a *Artifact) error {
	if err := s.putArtifact(key, a); err != nil {
		s.writeFailures.Add(1)
		msg := err.Error()
		s.firstWriteErr.CompareAndSwap(nil, &msg)
		return err
	}
	s.artPuts.Add(1)
	return nil
}

func (s *Store) putArtifact(key string, a *Artifact) error {
	if err := validKey(key); err != nil {
		return err
	}
	if a.Kind == "" {
		return fmt.Errorf("resultstore: artifact %s: empty kind", key)
	}
	if len(a.Payload) == 0 {
		return fmt.Errorf("resultstore: artifact %s (%s): empty payload", key, a.Kind)
	}
	a.Schema = ArtifactSchemaVersion
	a.Key = key
	data, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("resultstore: encode artifact %s: %w", key, err)
	}
	return s.b.Store(key, data)
}

// ArtifactStats reports the cumulative artifact lookup and write
// counters since Open, separate from the result counters.
func (s *Store) ArtifactStats() (hits, misses, puts int64) {
	return s.artHits.Load(), s.artMisses.Load(), s.artPuts.Load()
}
