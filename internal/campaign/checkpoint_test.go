package campaign

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sweep"
)

type memCks map[string][]byte

func (m memCks) LoadCheckpoint(name string) ([]byte, bool) {
	d, ok := m[name]
	return d, ok
}

func (m memCks) SaveCheckpoint(name string, data []byte) error {
	m[name] = append([]byte(nil), data...)
	return nil
}

func TestMergeOffsetRoundTrip(t *testing.T) {
	cks := memCks{}
	if got := LoadMergeOffset(cks, "fp"); got != 0 {
		t.Fatalf("missing checkpoint loads offset %d, want 0", got)
	}
	SaveMergeOffset(cks, "fp", 42)
	if got := LoadMergeOffset(cks, "fp"); got != 42 {
		t.Fatalf("offset round-trip = %d, want 42", got)
	}
	if got := LoadMergeOffset(cks, "other-campaign"); got != 0 {
		t.Fatalf("foreign fingerprint loads offset %d, want 0", got)
	}
	SaveMergeOffset(cks, "fp", 0) // completed merge resets
	if got := LoadMergeOffset(cks, "fp"); got != 0 {
		t.Fatalf("reset offset = %d, want 0", got)
	}
	if err := cks.SaveCheckpoint(MergeCheckpointName, []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	if got := LoadMergeOffset(cks, "fp"); got != 0 {
		t.Fatalf("damaged checkpoint loads offset %d, want 0", got)
	}
	cp := sweep.Checkpoint{Fingerprint: "fp", Offset: -7}
	if err := cks.SaveCheckpoint(MergeCheckpointName, cp.Encode()); err != nil {
		t.Fatal(err)
	}
	if got := LoadMergeOffset(cks, "fp"); got != 0 {
		t.Fatalf("negative offset loads as %d, want 0", got)
	}
}

// TestCheckpointedWriterReassembly is the byte-identity property
// cmd/rtrrepro's TestEndToEnd asserts on a killed and resumed watch
// merge: for EVERY possible kill
// point R, truncating the dead merge's output at R and appending a
// resumed render (same deterministic stream, Resume=R) reproduces the
// plain report exactly — across write-call boundaries, mid-chunk and
// at the ends.
func TestCheckpointedWriterReassembly(t *testing.T) {
	chunks := []string{"workload  fig9\n", "", "row 1 | 42.5\n", "x", "yz\n", "footer"}
	full := strings.Join(chunks, "")
	for r := 0; r <= len(full); r++ {
		var buf bytes.Buffer
		var saves []int64
		w := &CheckpointedWriter{W: &buf, Resume: int64(r),
			Save: func(total int64) { saves = append(saves, total) }}
		for _, c := range chunks {
			n, err := w.Write([]byte(c))
			if err != nil || n != len(c) {
				t.Fatalf("resume %d: Write(%q) = %d, %v", r, c, n, err)
			}
		}
		if got := full[:r] + buf.String(); got != full {
			t.Fatalf("resume %d: reassembled %q, want %q", r, got, full)
		}
		if len(saves) != len(chunks) || saves[len(saves)-1] != int64(len(full)) {
			t.Fatalf("resume %d: saves %v, want one per write ending at %d", r, saves, len(full))
		}
		for i := 1; i < len(saves); i++ {
			if saves[i] < saves[i-1] {
				t.Fatalf("resume %d: checkpoint went backwards: %v", r, saves)
			}
		}
	}
}

// failAfter errors once limit bytes have been accepted.
type failAfter struct {
	limit int
	n     int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		take := f.limit - f.n
		f.n = f.limit
		return take, fmt.Errorf("failAfter: disk full")
	}
	f.n += len(p)
	return len(p), nil
}

// TestCheckpointedWriterErrorAccounting: on a downstream write error
// the reported count covers the suppressed prefix plus what landed,
// and the checkpoint is NOT advanced past the failure.
func TestCheckpointedWriterErrorAccounting(t *testing.T) {
	var saves []int64
	w := &CheckpointedWriter{W: &failAfter{limit: 4}, Resume: 2,
		Save: func(total int64) { saves = append(saves, total) }}
	n, err := w.Write([]byte("0123456789")) // 2 suppressed, 8 attempted, 4 land
	if err == nil {
		t.Fatal("downstream error not surfaced")
	}
	if n != 6 {
		t.Fatalf("short write reported n=%d, want 6 (2 suppressed + 4 landed)", n)
	}
	if len(saves) != 0 {
		t.Fatalf("checkpoint advanced to %v across a failed write", saves)
	}
}
