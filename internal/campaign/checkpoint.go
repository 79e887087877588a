package campaign

import (
	"io"

	"repro/internal/sweep"
)

// MergeCheckpointName keys the watch merge's render checkpoint in the
// pool's coordination backend. One watch merge per campaign at a time:
// concurrent merges would overwrite each other's offsets (each still
// renders a correct report; only a later resume could mispair a
// checkpoint with another merge's partial output).
const MergeCheckpointName = "merge"

// LoadMergeOffset returns the byte offset a previous watch merge of
// this campaign checkpointed — how much of the report it had already
// written when it died — or 0 when none exists (including after a
// completed merge, which resets the record so a deliberate re-render
// prints the full report).
func LoadMergeOffset(cks sweep.CheckpointStore, fingerprint string) int64 {
	cp, ok := sweep.LoadCheckpoint(cks, MergeCheckpointName, fingerprint)
	if !ok || cp.Offset < 0 {
		return 0
	}
	return cp.Offset
}

// SaveMergeOffset checkpoints the merge render position. Failures are
// ignored: checkpoints are an optimisation and the render must never
// fail on one.
func SaveMergeOffset(cks sweep.CheckpointStore, fingerprint string, offset int64) {
	cp := sweep.Checkpoint{Fingerprint: fingerprint, Offset: offset}
	_ = cks.SaveCheckpoint(MergeCheckpointName, cp.Encode())
}

// CheckpointedWriter makes a deterministic render resumable at byte
// granularity: it suppresses the first Resume bytes written through it
// (the prefix a previous merge already printed before it was killed)
// and reports each emitted position to Save, which persists it as the
// next resume point. Because the report stream is deterministic — a
// resumed merge re-renders from the store, pure serve hits — the
// suppressed prefix is byte-identical to what the dead merge printed,
// so `previous partial output truncated at the checkpointed offset` +
// `resumed output` reassembles the exact plain report. Save runs after
// the bytes are written, never before: the checkpoint may lag the
// output (a kill between write and save re-prints a little) but can
// never lead it (which would silently drop report bytes).
type CheckpointedWriter struct {
	W      io.Writer
	Resume int64
	// Save persists the total bytes rendered so far; nil disables
	// checkpointing (the writer then only suppresses).
	Save func(total int64)

	total int64
}

// Write implements io.Writer over the suppress-then-emit split.
func (w *CheckpointedWriter) Write(p []byte) (int, error) {
	prev := w.total
	w.total += int64(len(p))
	emit := p
	if prev < w.Resume {
		if w.total <= w.Resume {
			emit = nil
		} else {
			emit = p[w.Resume-prev:]
		}
	}
	if len(emit) > 0 {
		if n, err := w.W.Write(emit); err != nil {
			// Report how much of p really landed (the suppressed part
			// counts as written — it already exists in the dead merge's
			// output).
			return len(p) - len(emit) + n, err
		}
	}
	if w.Save != nil {
		w.Save(w.total)
	}
	return len(p), nil
}
