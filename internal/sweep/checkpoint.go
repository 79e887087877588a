package sweep

import (
	"encoding/json"
	"time"
)

// CheckpointSchema identifies the checkpoint record layout. Bump it
// whenever Checkpoint's meaning changes; old records then read as
// absent and the participant simply starts cold — a checkpoint is an
// optimisation, never a correctness input.
const CheckpointSchema = 1

// Checkpoint is the resumable state of one campaign participant — a
// shard populate or a merge render. It is small by construction: "where
// to resume" is one counter, the stored prefix of a populate or the
// printed bytes of a merge. Records persist in the pool's coordination backend (see
// coord.CheckpointStore) keyed by participant, guarded by the campaign
// fingerprint so state from a different grid can never be resumed.
type Checkpoint struct {
	Schema int `json:"schema"`
	// Fingerprint is the campaign fingerprint the record belongs to —
	// the same grid identity the coordinator vets at Open.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Collected counts the contiguous prefix of the shard's owned
	// positions whose results the store acknowledged (served from it, or
	// written back successfully). A resumed attempt skips exactly these.
	Collected int `json:"collected,omitempty"`
	// Offset counts report bytes already written by a merge render; a
	// resumed merge re-renders from the store and suppresses exactly
	// this prefix (see campaign.CheckpointedWriter).
	Offset int64 `json:"offset,omitempty"`
	// SavedAtNS timestamps the save, for operators inspecting a pool.
	SavedAtNS int64 `json:"saved_at_ns,omitempty"`
}

// Encode serializes the record, stamping the schema.
func (c *Checkpoint) Encode() []byte {
	c.Schema = CheckpointSchema
	data, err := json.Marshal(c)
	if err != nil {
		// Checkpoint has no unserializable fields; keep the signature
		// save-path friendly.
		panic("sweep: encode checkpoint: " + err.Error())
	}
	return data
}

// DecodeCheckpoint parses a checkpoint record, vetting the schema and
// the campaign fingerprint. Damaged, foreign or future records read as
// "no checkpoint": resuming from them would corrupt the campaign,
// starting cold merely repeats work the store will serve anyway.
func DecodeCheckpoint(data []byte, fingerprint string) (*Checkpoint, bool) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil ||
		c.Schema != CheckpointSchema || c.Fingerprint != fingerprint {
		return nil, false
	}
	return &c, true
}

// CheckpointStore persists named checkpoint records. Implemented by
// coord.CheckpointStore over every coordination backend (fs, mem,
// http), so checkpoints travel with the pool state — over the
// wire too.
type CheckpointStore interface {
	// LoadCheckpoint returns the raw record under name, or false when
	// none exists or it cannot be read.
	LoadCheckpoint(name string) ([]byte, bool)
	// SaveCheckpoint atomically replaces the record under name.
	SaveCheckpoint(name string, data []byte) error
}

// LoadCheckpoint reads and vets the named record; missing, unreadable,
// damaged and foreign records all read as absent.
func LoadCheckpoint(cks CheckpointStore, name, fingerprint string) (*Checkpoint, bool) {
	data, ok := cks.LoadCheckpoint(name)
	if !ok {
		return nil, false
	}
	return DecodeCheckpoint(data, fingerprint)
}

// savesEvery is how many acknowledged results Populate lets land
// between two saves of its checkpoint.
const savesEvery = 8

// Populate is Collect into Discard for a re-leasable shard populate: the
// store write-through is its only output. With cks set it loads the
// checkpoint under name, skips the acknowledged prefix it records, and
// saves fresh progress as results land — every savesEvery
// acknowledged results and once at the end, error or not — so a worker
// that dies mid-grid costs only the work since the last save, not the
// shard generation. It returns how many owned positions the checkpoint
// skipped. A nil cks is a plain Collect(spec, Discard).
//
// The saved prefix freezes at the first result the store did not
// acknowledge (failed store write, uncacheable sweep): a checkpoint must
// never skip a scenario the store cannot serve to the next attempt. A
// failed save costs resumability, never the sweep — the sweep's
// correctness does not depend on checkpoints existing at all.
func (e Executor) Populate(spec Spec, cks CheckpointStore, name, fingerprint string) (resumed int, err error) {
	if cks == nil {
		return 0, e.Collect(spec, Discard)
	}
	if cp, ok := LoadCheckpoint(cks, name, fingerprint); ok {
		resumed = min(max(cp.Collected, 0), spec.Shard.SizeOf(spec.Size()))
	}
	collected, frozen, unsaved := resumed, false, 0
	save := func() {
		unsaved = 0
		cp := Checkpoint{Fingerprint: fingerprint, Collected: collected, SavedAtNS: time.Now().UnixNano()}
		_ = cks.SaveCheckpoint(name, cp.Encode()) // a failed save costs resumability only
	}
	err = e.collect(spec, resumed, CollectorFunc(func(r *Result) error {
		if frozen = frozen || !r.stored; !frozen {
			collected++
			if unsaved++; unsaved == savesEvery {
				save()
			}
		}
		return nil
	}))
	save()
	return resumed, err
}
