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
	cp := Checkpoint{Fingerprint: "fp", Collected: 7, Offset: 99}
	data := cp.Encode()
	got, ok := DecodeCheckpoint(data, "fp")
	if !ok {
		t.Fatal("round-trip decode failed")
	}
	if got.Collected != 7 || got.Offset != 99 || got.Schema != CheckpointSchema {
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

// failingPuts is a store Backend whose Store fails for the keys in fail:
// the results of those scenarios run but are never acknowledged.
type failingPuts struct {
	resultstore.Backend
	fail map[string]bool
}

func (b *failingPuts) Store(key string, data []byte) error {
	if b.fail[key] {
		return fmt.Errorf("failingPuts: injected write failure")
	}
	return b.Backend.Store(key, data)
}

// TestCheckpointerFreezesOnUnstored: Populate's acknowledged prefix
// advances over stored results only and freezes permanently at the first
// result the store did not acknowledge — later stored results must not
// punch holes a resume would skip over.
func TestCheckpointerFreezesOnUnstored(t *testing.T) {
	spec := fig9Spec(t, 4, 5, 6) // 12 scenarios: one stride save, then the end
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	backend := &failingPuts{Backend: resultstore.OpenMem().Backend(), fail: map[string]bool{keys[9]: true}}
	cks := newMemCheckpoints()
	resumed, err := (Executor{Workers: 2, Store: resultstore.FromBackend(backend)}).Populate(spec, cks, "shard-0000/t", "fp")
	if err != nil || resumed != 0 {
		t.Fatalf("Populate resumed %d (err %v), want 0 and nil", resumed, err)
	}
	cp, ok := LoadCheckpoint(cks, "shard-0000/t", "fp")
	if !ok || cp.Collected != 9 {
		t.Fatalf("persisted checkpoint = %+v (ok=%v), want Collected 9 (frozen at the unstored scenario 9)", cp, ok)
	}
}

// TestCheckpointerSaveFailuresTolerated: a backend that refuses the
// checkpoint write costs resumability, never the sweep.
func TestCheckpointerSaveFailuresTolerated(t *testing.T) {
	spec := fig9Spec(t, 4, 5, 6)
	cks := newMemCheckpoints()
	cks.failSaves = 100
	store := resultstore.OpenMem()
	resumed, err := (Executor{Workers: 2, Store: store}).Populate(spec, cks, "t", "fp")
	if err != nil || resumed != 0 {
		t.Fatalf("Populate resumed %d (err %v), want 0 and nil", resumed, err)
	}
	if want := 100 - 2; cks.failSaves != want {
		t.Errorf("%d checkpoint saves attempted, want 2 (one stride, one at the end)", 100-cks.failSaves)
	}
	if len(cks.m) != 0 {
		t.Errorf("failed saves left records %v", cks.m)
	}
	if _, _, puts := store.Stats(); puts != int64(spec.Size()) {
		t.Errorf("populate stored %d of %d scenarios", puts, spec.Size())
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

// TestCollectResumableSkipsCompletedPrefix is Populate's resume pin:
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
	resumed, err := ex.Populate(spec, cks, name, fp)
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
	resumed, err = ex2.Populate(spec2, cks, name, fp)
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
	resumed, err = (Executor{Workers: 1, Store: store}).Populate(spec3, cks, name, fp)
	if err != nil || resumed != 3 {
		t.Fatalf("attempt 3 resumed %d (err %v), want 3 and nil", resumed, err)
	}
}

// TestCollectResumableVetsCheckpoints: Populate ignores foreign-fingerprint
// records and clamps absurd collected counts to the shard's size.
func TestCollectResumableVetsCheckpoints(t *testing.T) {
	store := resultstore.OpenMem()
	cks := newMemCheckpoints()
	const name = "shard-0000/grid0"

	foreign := Checkpoint{Fingerprint: "other-campaign", Collected: 3}
	if err := cks.SaveCheckpoint(name, foreign.Encode()); err != nil {
		t.Fatal(err)
	}
	spec := resumableSpec(t, func() (policy.Policy, error) { return policy.NewLRU(), nil })
	resumed, err := (Executor{Workers: 1, Store: store}).Populate(spec, cks, name, "fp")
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
	resumed, err = (Executor{Workers: 1, Store: store}).Populate(spec2, cks, name, "fp")
	if err != nil || resumed != 3 {
		t.Fatalf("oversized checkpoint resumed %d (err %v), want clamp to the 3 owned scenarios", resumed, err)
	}
}
