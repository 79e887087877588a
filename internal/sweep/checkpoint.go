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
// shard populate or a merge render. It is small by construction: the
// executor retains only a bounded reorder window and the renderer only
// the current row block, so "where to resume" compresses to a pair of
// counters. Records persist in the pool's coordination backend (see
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
	// Rows counts renderer rows emitted when the checkpointed collector
	// renders (zero for populate-only shards).
	Rows int `json:"rows,omitempty"`
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

// Checkpointer wraps a Collector with resume bookkeeping: it counts the
// contiguous prefix of results the store acknowledged and periodically
// persists it, so the next attempt at this shard (after a SIGKILL, a
// lost lease, a host crash) skips straight past the completed spec
// indices instead of re-probing — or worse, re-simulating — them.
//
// Advancement freezes at the first unacknowledged result (failed store
// write, uncacheable sweep, post-cancel straggler): a checkpoint must
// never skip a scenario the store cannot serve to the next attempt.
// Save failures are counted, never fatal — the sweep's correctness does
// not depend on checkpoints existing at all.
type Checkpointer struct {
	// C receives every result, unchanged and in spec order.
	C Collector
	// Store persists the records; Name keys this participant (e.g.
	// "shard-0007/fig9b-grid0"); Fingerprint guards against resuming
	// foreign state.
	Store       CheckpointStore
	Name        string
	Fingerprint string
	// Resume is the prefix already collected before this run (the
	// executor's resumeSkip); the counter starts there.
	Resume int
	// Stride bounds how many acknowledged results may land between
	// saves when the downstream collector exposes no row boundaries;
	// values ≤ 0 mean 8. When C implements `Rows() int` (the streaming
	// renderers), saves align to row-block boundaries instead.
	Stride int

	collected    int
	rows         int
	frozen       bool
	sinceSave    int
	saves        int
	saveFailures int
	started      bool
}

// Collect passes the result through and advances the checkpoint state.
func (k *Checkpointer) Collect(r *Result) error {
	if !k.started {
		k.started = true
		k.collected = k.Resume
	}
	if err := k.C.Collect(r); err != nil {
		return err
	}
	if k.frozen || !r.stored {
		k.frozen = true
		return nil
	}
	k.collected++
	k.sinceSave++
	if rower, ok := k.C.(interface{ Rows() int }); ok {
		if n := rower.Rows(); n != k.rows {
			k.rows = n
			k.save()
		}
		return nil
	}
	stride := k.Stride
	if stride <= 0 {
		stride = 8
	}
	if k.sinceSave >= stride {
		k.save()
	}
	return nil
}

func (k *Checkpointer) save() {
	k.sinceSave = 0
	cp := Checkpoint{
		Fingerprint: k.Fingerprint,
		Collected:   k.collected,
		Rows:        k.rows,
		SavedAtNS:   time.Now().UnixNano(),
	}
	if err := k.Store.SaveCheckpoint(k.Name, cp.Encode()); err != nil {
		k.saveFailures++
		return
	}
	k.saves++
}

// Flush persists the final state; call it once Collect has returned,
// error or not — on failure the record is exactly what lets the next
// attempt resume past the work that did land.
func (k *Checkpointer) Flush() {
	if !k.started {
		k.collected = k.Resume
	}
	k.save()
}

// Collected reports the acknowledged contiguous prefix, including the
// resumed part.
func (k *Checkpointer) Collected() int {
	if !k.started {
		return k.Resume
	}
	return k.collected
}

// Saves reports how many checkpoint writes succeeded and failed.
func (k *Checkpointer) Saves() (saved, failed int) { return k.saves, k.saveFailures }

// CollectResumable is Collect for a re-leasable shard populate: it
// loads the shard's checkpoint, skips the acknowledged prefix, and
// checkpoints fresh progress as results land, so a worker that dies
// mid-grid costs only the work since the last save — not the shard
// generation. It returns how many owned positions the checkpoint
// skipped. Only collectors that tolerate missing results may ride it
// (the populate path's Discard); renderers must see every row.
func (e Executor) CollectResumable(spec Spec, c Collector, cks CheckpointStore, name, fingerprint string) (int, error) {
	resumed := 0
	if cp, ok := LoadCheckpoint(cks, name, fingerprint); ok {
		resumed = cp.Collected
	}
	if n := spec.Shard.SizeOf(spec.Size()); resumed > n {
		resumed = n
	}
	if resumed < 0 {
		resumed = 0
	}
	e.resumeSkip = resumed
	k := &Checkpointer{C: c, Store: cks, Name: name, Fingerprint: fingerprint, Resume: resumed}
	err := e.Collect(spec, k)
	k.Flush()
	return resumed, err
}
