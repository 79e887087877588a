package sweep

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dynlist"
	"repro/internal/faultstore"
	"repro/internal/manager"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/storetest"
)

// twoWorkloadSpec is fig9Spec with a second, differently drawn workload,
// so ideal baselines are keyed by workload content as well as RUs.
func twoWorkloadSpec(t testing.TB, rus ...int) Spec {
	t.Helper()
	spec := fig9Spec(t, rus...)
	pool := spec.Workloads[0].Pool
	seq, err := dynlist.RandomSequence(pool, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workloads = append(spec.Workloads, Workload{Label: "seed 7", Pool: pool, Seq: seq})
	return spec
}

// sameAsReference checks results against a no-store run of the same
// grid, matched by spec index: Summary and the stored form of the ideal
// baseline must agree field for field.
func sameAsReference(t *testing.T, what string, got []*Result, ref *ResultSet) {
	t.Helper()
	if len(got) == 0 {
		t.Fatalf("%s: no results", what)
	}
	for _, r := range got {
		want := ref.Results[r.Scenario.Index]
		if !reflect.DeepEqual(r.Summary, want.Summary) {
			t.Errorf("%s scenario %d summary:\n got %+v\nwant %+v", what, r.Scenario.Index, r.Summary, want.Summary)
		}
		if g, w := resultstore.RecordRun(r.Ideal), resultstore.RecordRun(want.Ideal); !reflect.DeepEqual(g, w) {
			t.Errorf("%s scenario %d ideal:\n got %+v\nwant %+v", what, r.Scenario.Index, g, w)
		}
	}
}

// idealRunKind is the artifact kind under which older sweeps stored each
// (workload, RUs) ideal baseline, and legacyIdealKey the key they filed
// it under. Nothing reads or writes either any more; the tests below
// plant such artifacts to pin that.
const idealRunKind = "ideal-run"

func legacyIdealKey(t testing.TB, w *Workload, rus int) string {
	t.Helper()
	wlKey, err := workloadKey(w)
	if err != nil {
		t.Fatal(err)
	}
	h := resultstore.NewHash()
	h.String("artifact", idealRunKind)
	h.String("workload", wlKey)
	h.Int("rus", int64(rus))
	return h.Sum()
}

// plantIdealArtifacts writes into store the ideal-run artifact an older
// sweep of spec left for each (workload, RUs) pair, ref's baseline as a
// stored Run, and returns their keys.
func plantIdealArtifacts(t *testing.T, store *resultstore.Store, spec Spec, ref *ResultSet) []string {
	t.Helper()
	seen := make(map[string]bool)
	var keys []string
	for _, r := range ref.Results {
		key := legacyIdealKey(t, &spec.Workloads[r.Scenario.WorkloadIdx], r.Scenario.RUs)
		if seen[key] {
			continue
		}
		seen[key] = true
		payload, err := json.Marshal(resultstore.RecordRun(r.Ideal))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.PutArtifact(key, &resultstore.Artifact{
			Kind: idealRunKind, KindVersion: resultstore.SchemaVersion,
			Label: fmt.Sprintf("ideal %s rus=%d", r.Scenario.Workload.Label, r.Scenario.RUs), Payload: payload,
		}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	return keys
}

// TestIdealArtifactInvalidation: an ideal-run artifact is never served,
// whatever its shape — the current kind version, a stale one, an
// undecodable or a mis-shaped payload. A sweep over it matches a no-store
// run and makes no artifact operation, and GC removes the artifact while
// it keeps the entry. No sweep writes one either: a fault armed on the
// artifact's key never fires.
func TestIdealArtifactInvalidation(t *testing.T) {
	spec := fig9Spec(t, 4)
	spec.Policies = spec.Policies[:1]
	ref, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := legacyIdealKey(t, &spec.Workloads[0], 4)
	// A tampered payload is decodable but wrong, so serving it would show
	// in the summary.
	tampered := *resultstore.RecordRun(ref.Results[0].Ideal)
	tampered.Makespan++
	tamperedPayload, err := json.Marshal(&tampered)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]resultstore.Artifact{
		"current kind version": {Kind: idealRunKind, KindVersion: resultstore.SchemaVersion, Payload: tamperedPayload},
		"stale kind version":   {Kind: idealRunKind, KindVersion: resultstore.SchemaVersion - 1, Payload: tamperedPayload},
		"undecodable":          {Kind: idealRunKind, KindVersion: resultstore.SchemaVersion, Payload: json.RawMessage(`{"completions":"!"}`)},
		"wrong shape":          {Kind: idealRunKind, KindVersion: resultstore.SchemaVersion, Payload: json.RawMessage(`{"makespan":1,"graphs":1}`)},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			store := resultstore.OpenMem()
			if err := store.PutArtifact(key, &bad); err != nil {
				t.Fatal(err)
			}
			fresh := resultstore.FromBackend(store.Backend())
			rs, err := (Executor{Workers: 1, Store: fresh}).Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, name, rs.Results, ref)
			if hits, misses, puts := fresh.ArtifactStats(); hits+misses+puts != 0 {
				t.Errorf("%d/%d/%d artifact hits/misses/puts, want none", hits, misses, puts)
			}
			st, err := fresh.GC()
			if err != nil {
				t.Fatal(err)
			}
			if st.Removed != 1 || st.Kept != 1 {
				t.Errorf("gc removed %d kept %d, want the ideal-run artifact removed and the entry kept", st.Removed, st.Kept)
			}
			if _, ok := fresh.Backend().Load(key); ok {
				t.Error("the ideal-run artifact survived gc")
			}
		})
	}

	t.Run("failed write", func(t *testing.T) {
		plan := faultstore.NewPlan(1).FailNext(faultstore.OpStoreStore, key, 1)
		store := resultstore.FromBackend(faultstore.WrapStore(resultstore.NewMem(), plan))
		rs, err := (Executor{Workers: 1, Store: store}).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, "failed write", rs.Results, ref)
		if _, _, puts := store.Stats(); puts != 1 {
			t.Errorf("%d result puts, want the scenario stored", puts)
		}
		if plan.InjectedTotal() != 0 || strings.Contains(store.SummaryLine(), "FAILED") {
			t.Errorf("%d faults fired (summary %q): the sweep wrote under the ideal-run key", plan.InjectedTotal(), store.SummaryLine())
		}
	})
}

// TestIdealBaselineBypassesStoreWithoutKeys: an uncacheable spec never
// touches the store, and its baseline is the one Runner.Ideal computes.
func TestIdealBaselineBypassesStoreWithoutKeys(t *testing.T) {
	store := resultstore.OpenMem()
	spec := fig9Spec(t, 4)
	spec.Policies = []PolicySpec{{Name: "hand-built", New: func() (policy.Policy, error) { return policy.NewLRU(), nil }}}
	rs, err := (Executor{Workers: 1, Store: store}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := manager.NewRunner().Ideal(4, dynlist.NewSequence(spec.Workloads[0].Seq...))
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Results[0].Ideal; !reflect.DeepEqual(got, want) {
		t.Errorf("ideal %+v, want Runner.Ideal's %+v", got, want)
	}
	hits, misses, puts := store.Stats()
	ahits, amisses, aputs := store.ArtifactStats()
	if hits+misses+puts+ahits+amisses+aputs != 0 {
		t.Errorf("uncacheable spec touched the store: %d/%d/%d results, %d/%d/%d artifacts",
			hits, misses, puts, ahits, amisses, aputs)
	}
}

// renderRows renders each result as one line: scenario and summary,
// whose IdealMakespan and Delay digest carry the ideal baseline's effect.
func renderRows(results []*Result) []string {
	rows := make([]string, len(results))
	for i, r := range results {
		rows[i] = fmt.Sprintf("%s %+v", r.Scenario.Name(), *r.Summary)
	}
	return rows
}

// TestMergeSurvivesDamagedIdealArtifacts: a merge over a store an older
// sweep populated, holding its ideal-run artifacts with one deleted and
// one truncated, needs none of them. A RequireStored merge and a
// StoreWait watch merge each serve every entry (0 misses), render rows
// byte-identical to a live run and make no artifact operation.
func TestMergeSurvivesDamagedIdealArtifacts(t *testing.T) {
	spec := twoWorkloadSpec(t, 4, 5)
	ref, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(ref.Results)
	merges := []struct {
		name string
		wait *StoreWait
	}{
		{"require stored", nil},
		{"store wait", &StoreWait{Poll: time.Millisecond, Done: func() (bool, error) { return true, nil }}},
	}

	for _, bk := range storetest.Backends() {
		t.Run(bk.Name, func(t *testing.T) {
			store, reopen := bk.Open(t)
			if err := (Executor{Workers: 2, Store: store}).Collect(spec, Discard); err != nil {
				t.Fatal(err)
			}
			ideals := plantIdealArtifacts(t, store, spec, ref)
			b := store.Backend()
			if err := b.Delete(ideals[0]); err != nil {
				t.Fatal(err)
			}
			data, ok := b.Load(ideals[1])
			if !ok {
				t.Fatal("planted ideal artifact missing")
			}
			if err := b.Store(ideals[1], data[:len(data)/2]); err != nil {
				t.Fatal(err)
			}
			for _, m := range merges {
				merge := reopen(t)
				rs, err := (Executor{Workers: 2, Store: merge, RequireStored: true, StoreWait: m.wait}).Run(spec)
				if err != nil {
					t.Fatalf("%s merge: %v", m.name, err)
				}
				if got := renderRows(rs.Results); !reflect.DeepEqual(got, want) {
					t.Errorf("%s merge rows differ from the live run:\n got %q\nwant %q", m.name, got, want)
				}
				if hits, misses, puts := merge.Stats(); hits != int64(spec.Size()) || misses != 0 || puts != 0 {
					t.Errorf("%s merge: %d hits, %d misses, %d puts; want %d hits and nothing else", m.name, hits, misses, puts, spec.Size())
				}
				if hits, misses, puts := merge.ArtifactStats(); hits+misses+puts != 0 {
					t.Errorf("%s merge artifacts: %d hits, %d misses, %d puts; want none", m.name, hits, misses, puts)
				}
			}
		})
	}
}
