package sweep

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/policy"
	"repro/internal/resultstore"
)

// memCheckpoints is an in-test CheckpointStore; failSaves > 0 makes the
// next saves fail, pinning that checkpoints are an optimisation the
// sweep never depends on.
type memCheckpoints struct {
	m         map[string][]byte
	failSaves int
}

func newMemCheckpoints() *memCheckpoints { return &memCheckpoints{m: make(map[string][]byte)} }

func (m *memCheckpoints) LoadCheckpoint(name string) ([]byte, bool) {
	d, ok := m.m[name]
	return d, ok
}

func (m *memCheckpoints) SaveCheckpoint(name string, data []byte) error {
	if m.failSaves > 0 {
		m.failSaves--
		return fmt.Errorf("memCheckpoints: injected save failure")
	}
	m.m[name] = append([]byte(nil), data...)
	return nil
}

func TestCheckpointDecodeVetting(t *testing.T) {
	cp := Checkpoint{Fingerprint: "fp", Collected: 7, Rows: 2, Offset: 99}
	data := cp.Encode()
	got, ok := DecodeCheckpoint(data, "fp")
	if !ok {
		t.Fatal("round-trip decode failed")
	}
	if got.Collected != 7 || got.Rows != 2 || got.Offset != 99 || got.Schema != CheckpointSchema {
		t.Fatalf("decoded %+v, want the encoded fields back", got)
	}
	if _, ok := DecodeCheckpoint(data, "other-campaign"); ok {
		t.Fatal("foreign fingerprint accepted")
	}
	if _, ok := DecodeCheckpoint([]byte(`{"schema":99,"fingerprint":"fp"}`), "fp"); ok {
		t.Fatal("future schema accepted")
	}
	if _, ok := DecodeCheckpoint([]byte(`{torn`), "fp"); ok {
		t.Fatal("damaged record accepted")
	}
}

// TestCheckpointerFreezesOnUnstored: the acknowledged prefix advances
// over stored results only and freezes permanently at the first result
// the store did not acknowledge — later stored stragglers must not
// punch holes a resume would skip over.
func TestCheckpointerFreezesOnUnstored(t *testing.T) {
	cks := newMemCheckpoints()
	k := &Checkpointer{C: Discard, Store: cks, Name: "shard-0000/t", Fingerprint: "fp", Stride: 2}
	feed := []bool{true, true, true, false, true, true}
	for _, stored := range feed {
		if err := k.Collect(&Result{stored: stored}); err != nil {
			t.Fatal(err)
		}
	}
	if k.Collected() != 3 {
		t.Fatalf("Collected() = %d after freeze, want 3", k.Collected())
	}
	k.Flush()
	if saved, failed := k.Saves(); saved < 2 || failed != 0 {
		t.Fatalf("saves = %d/%d failed, want ≥2 (stride + flush) and none failed", saved, failed)
	}
	cp, ok := LoadCheckpoint(cks, "shard-0000/t", "fp")
	if !ok || cp.Collected != 3 {
		t.Fatalf("persisted checkpoint = %+v (ok=%v), want Collected 3", cp, ok)
	}
}

// rowingCollector exposes renderer-style row boundaries: one row per
// two results.
type rowingCollector struct{ n int }

func (r *rowingCollector) Collect(*Result) error { r.n++; return nil }
func (r *rowingCollector) Rows() int             { return r.n / 2 }

// TestCheckpointerRowBoundarySaves: when the downstream collector
// renders, saves align to completed row blocks, not the stride.
func TestCheckpointerRowBoundarySaves(t *testing.T) {
	cks := newMemCheckpoints()
	k := &Checkpointer{C: &rowingCollector{}, Store: cks, Name: "merge/t", Fingerprint: "fp", Stride: 1}
	for i := 0; i < 5; i++ {
		if err := k.Collect(&Result{stored: true}); err != nil {
			t.Fatal(err)
		}
	}
	if saved, _ := k.Saves(); saved != 2 {
		t.Fatalf("saves = %d after 5 results at 2 results/row, want 2 (row boundaries only)", saved)
	}
	cp, ok := LoadCheckpoint(cks, "merge/t", "fp")
	if !ok || cp.Rows != 2 || cp.Collected != 4 {
		t.Fatalf("persisted checkpoint = %+v (ok=%v), want Rows 2, Collected 4", cp, ok)
	}
}

// TestCheckpointerSaveFailuresTolerated: a backend that refuses the
// checkpoint write costs resumability, never the sweep.
func TestCheckpointerSaveFailuresTolerated(t *testing.T) {
	cks := newMemCheckpoints()
	cks.failSaves = 100
	k := &Checkpointer{C: Discard, Store: cks, Name: "t", Fingerprint: "fp", Stride: 1}
	for i := 0; i < 4; i++ {
		if err := k.Collect(&Result{stored: true}); err != nil {
			t.Fatal(err)
		}
	}
	k.Flush()
	if saved, failed := k.Saves(); saved != 0 || failed != 5 {
		t.Fatalf("saves = %d/%d failed, want 0 saved and 5 failed", saved, failed)
	}
}

// resumableSpec is a three-scenario spec (policies LRU, mid, LFD over
// one RU) whose middle policy is built by mid — the injection point for
// a mid-sweep death.
func resumableSpec(t testing.TB, mid func() (policy.Policy, error)) Spec {
	t.Helper()
	spec := fig9Spec(t, 4)
	spec.Policies = []PolicySpec{
		Fixed("LRU", policy.NewLRU()),
		{Name: "mid", Key: "mid", New: mid},
		Fixed("LFD", policy.NewLFD()),
	}
	return spec
}

// TestCollectResumableSkipsCompletedPrefix is the tentpole resume pin:
// attempt 1 dies mid-grid (scenario 1 fails), attempt 2 loads the
// checkpoint and resumes past the completed prefix — scenario 0 is
// neither probed nor simulated again, asserted by the dispatch
// observer and a poisoned constructor.
func TestCollectResumableSkipsCompletedPrefix(t *testing.T) {
	store := resultstore.OpenMem()
	cks := newMemCheckpoints()
	const name, fp = "shard-0000/grid0", "fp"

	ex := Executor{Workers: 1, Store: store}
	spec := resumableSpec(t, func() (policy.Policy, error) {
		return nil, fmt.Errorf("worker died here")
	})
	resumed, err := ex.CollectResumable(spec, Discard, cks, name, fp)
	if err == nil {
		t.Fatal("attempt 1 was scripted to die and did not")
	}
	if resumed != 0 {
		t.Fatalf("attempt 1 resumed %d, want 0 (cold start)", resumed)
	}
	cp, ok := LoadCheckpoint(cks, name, fp)
	if !ok || cp.Collected != 1 {
		t.Fatalf("attempt 1 left checkpoint %+v (ok=%v), want Collected 1", cp, ok)
	}

	// Attempt 2: the mid scenario now works; the completed scenario 0
	// must be skipped outright (its constructor panics if dispatched).
	spec2 := resumableSpec(t, func() (policy.Policy, error) { return policy.NewLRU(), nil })
	spec2.Policies[0].New = func() (policy.Policy, error) {
		panic("resumed attempt re-dispatched a checkpointed scenario")
	}
	var dispatched []int
	ex2 := Executor{Workers: 1, Store: store}
	ex2.observeDispatch = func(i int) { dispatched = append(dispatched, i) }
	resumed, err = ex2.CollectResumable(spec2, Discard, cks, name, fp)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("attempt 2 resumed %d, want 1", resumed)
	}
	sort.Ints(dispatched)
	if want := []int{1, 2}; !reflect.DeepEqual(dispatched, want) {
		t.Fatalf("attempt 2 dispatched %v, want %v (prefix skipped)", dispatched, want)
	}
	if cp, ok := LoadCheckpoint(cks, name, fp); !ok || cp.Collected != 3 {
		t.Fatalf("attempt 2 left checkpoint %+v (ok=%v), want Collected 3", cp, ok)
	}

	// Attempt 3: everything checkpointed — nothing runs at all.
	spec3 := resumableSpec(t, nil)
	for i := range spec3.Policies {
		spec3.Policies[i].New = func() (policy.Policy, error) {
			panic("fully-resumed attempt dispatched a scenario")
		}
	}
	resumed, err = (Executor{Workers: 1, Store: store}).CollectResumable(spec3, Discard, cks, name, fp)
	if err != nil || resumed != 3 {
		t.Fatalf("attempt 3 resumed %d (err %v), want 3 and nil", resumed, err)
	}
}

// TestCollectResumableVetsCheckpoints: foreign-fingerprint records are
// ignored and absurd collected counts clamp to the shard's size.
func TestCollectResumableVetsCheckpoints(t *testing.T) {
	store := resultstore.OpenMem()
	cks := newMemCheckpoints()
	const name = "shard-0000/grid0"

	foreign := Checkpoint{Fingerprint: "other-campaign", Collected: 3}
	if err := cks.SaveCheckpoint(name, foreign.Encode()); err != nil {
		t.Fatal(err)
	}
	spec := resumableSpec(t, func() (policy.Policy, error) { return policy.NewLRU(), nil })
	resumed, err := (Executor{Workers: 1, Store: store}).CollectResumable(spec, Discard, cks, name, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("foreign checkpoint resumed %d scenarios, want 0", resumed)
	}

	huge := Checkpoint{Fingerprint: "fp", Collected: 1 << 20}
	if err := cks.SaveCheckpoint(name, huge.Encode()); err != nil {
		t.Fatal(err)
	}
	spec2 := resumableSpec(t, nil)
	for i := range spec2.Policies {
		spec2.Policies[i].New = func() (policy.Policy, error) {
			panic("clamped resume dispatched a scenario")
		}
	}
	resumed, err = (Executor{Workers: 1, Store: store}).CollectResumable(spec2, Discard, cks, name, "fp")
	if err != nil || resumed != 3 {
		t.Fatalf("oversized checkpoint resumed %d (err %v), want clamp to the 3 owned scenarios", resumed, err)
	}
}
