package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/resultstore"
)

// TestWarmStoreReportsByteIdentical is the experiments-level reuse pin:
// re-running a grid experiment against a populated store must re-simulate
// nothing and emit a byte-identical report. cmd/rtrrepro's
// TestEndToEnd/determinism checks the same through the rtrrepro binary.
func TestWarmStoreReportsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep in -short mode")
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 2011, Apps: 40, RUs: []int{4, 5}, Store: store}

	render := func() string {
		var buf bytes.Buffer
		if err := Fig9B(opt, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cold := render()
	_, _, puts := store.Stats()
	if puts == 0 {
		t.Fatal("cold run wrote nothing to the store")
	}
	hitsBefore, missesBefore, _ := store.Stats()
	warm := render()
	hits, misses, putsAfter := store.Stats()
	if warm != cold {
		t.Errorf("warm report diverged from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if misses != missesBefore {
		t.Errorf("warm run missed the store %d times — scenarios were re-simulated", misses-missesBefore)
	}
	if hits-hitsBefore != puts {
		t.Errorf("warm run hit %d of %d stored scenarios", hits-hitsBefore, puts)
	}
	if putsAfter != puts {
		t.Errorf("warm run wrote %d new entries", putsAfter-puts)
	}

	// A different seed is a different workload: nothing may be served
	// from the entries above.
	changed := opt
	changed.Seed = 2024
	var buf bytes.Buffer
	if err := Fig9B(changed, &buf); err != nil {
		t.Fatal(err)
	}
	hits2, misses2, _ := store.Stats()
	if hits2 != hits {
		t.Errorf("changed seed served %d stale entries", hits2-hits)
	}
	if misses2 == misses {
		t.Error("changed seed recorded no store misses")
	}
	if !strings.Contains(buf.String(), "seed 2024") {
		t.Error("changed-seed report does not mention its seed")
	}
}

// TestStoreSharedAcrossExperiments: experiments over the same grid share
// entries — fig9a and fig9b both plot LRU and LFD on the same workload,
// so the second experiment starts warm for those series.
func TestStoreSharedAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep in -short mode")
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 2011, Apps: 40, RUs: []int{4}, Store: store}
	var buf bytes.Buffer
	if err := Fig9A(opt, &buf); err != nil {
		t.Fatal(err)
	}
	hitsBefore, _, _ := store.Stats()
	if err := Fig9B(opt, &buf); err != nil {
		t.Fatal(err)
	}
	hits, _, _ := store.Stats()
	// Fig9A ran LRU, LocalLFD(1) and LFD at R=4; Fig9B reuses all three.
	if hits-hitsBefore < 3 {
		t.Errorf("fig9b hit only %d shared entries, want ≥3", hits-hitsBefore)
	}
}
