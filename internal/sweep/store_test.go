package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/storetest"
	"repro/internal/taskgraph"
)

func openStore(t *testing.T) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreWarmRunIdentical is the reuse pin: a second identical sweep
// against the same store simulates nothing (every scenario is a hit) and
// returns results field-for-field identical to the cold run, ideal
// baselines and their completions included — the
// property the CI determinism gate enforces end to end on the CLI. It
// runs against every registered store backend: serving from memory or
// the campaign database must reproduce the fs behavior bit for bit.
func TestStoreWarmRunIdentical(t *testing.T) {
	for _, bk := range storetest.Backends(t) {
		t.Run(bk.Name, func(t *testing.T) {
			spec := fig9Spec(t, 4, 5)
			store, reopen := bk.Open(t)
			ex := Executor{Workers: 4, Store: store}

			cold, err := ex.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			hits, misses, puts := store.Stats()
			if hits != 0 || misses != int64(spec.Size()) || puts != int64(spec.Size()) {
				t.Fatalf("cold run stats hits=%d misses=%d puts=%d, want 0/%d/%d",
					hits, misses, puts, spec.Size(), spec.Size())
			}

			// The warm run serves through a fresh handle over the same
			// data — what re-invoking the CLI against the same -store
			// locator does. A policy axis whose constructor panics proves
			// no scenario was dispatched to the simulator.
			warmStore := reopen(t)
			warmSpec := spec
			warmSpec.Policies = make([]PolicySpec, len(spec.Policies))
			for i, p := range spec.Policies {
				warmSpec.Policies[i] = p
				warmSpec.Policies[i].New = func() (policy.Policy, error) {
					panic("warm run dispatched a scenario to the simulator")
				}
			}
			warm, err := (Executor{Workers: 4, Store: warmStore}).Run(warmSpec)
			if err != nil {
				t.Fatal(err)
			}
			hits, _, puts = warmStore.Stats()
			if hits != int64(spec.Size()) || puts != 0 {
				t.Fatalf("warm run stats hits=%d puts=%d, want %d hits and no new writes",
					hits, puts, spec.Size())
			}

			for i := range cold.Results {
				c, w := cold.Results[i], warm.Results[i]
				if !reflect.DeepEqual(c.Summary, w.Summary) {
					t.Errorf("scenario %d summary diverged:\ncold %+v\nwarm %+v", i, c.Summary, w.Summary)
				}
				cr, wr := *c.Run, *w.Run
				cr.Templates, wr.Templates = nil, nil // in-memory only, never reported
				if !reflect.DeepEqual(cr, wr) {
					t.Errorf("scenario %d run diverged:\ncold %+v\nwarm %+v", i, cr, wr)
				}
				ci, wi := *c.Ideal, *w.Ideal
				ci.Templates, wi.Templates = nil, nil
				if !reflect.DeepEqual(ci, wi) {
					t.Errorf("scenario %d ideal diverged:\ncold %+v\nwarm %+v", i, ci, wi)
				}
			}
		})
	}
}

// TestSchemaV2EntryMigrates pins the v2 → v3 schema bump on a literal
// v2 entry, completions still a JSON integer array: Get and Probe miss,
// ElapsedHint still serves its timing, a sweep re-simulates the scenario
// and overwrites the entry in place as v3 (storing its ideal baseline as
// an artifact), and GC removes a v2 entry nobody re-simulated while it
// keeps the v3 entry and the ideal artifact.
func TestSchemaV2EntryMigrates(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := fig9Spec(t, 4)
	spec.Policies = spec.Policies[:1]
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	key := keys[0]
	path := func(key string) string { return filepath.Join(dir, "objects", key[:2], key+".json") }
	writeV2 := func(key string) {
		t.Helper()
		v2 := fmt.Sprintf(`{"schema":2,"key":%q,"elapsed_ns":4242,`+
			`"run":{"makespan":70000,"executed":15,"reused":5,"loads":10,"evictions":6,"graphs":3,"completions":[30000,70000],"events":42},`+
			`"ideal":{"makespan":50000,"executed":15,"loads":15,"evictions":0,"reused":0,"graphs":3,"completions":[20000,50000],"events":40}}`, key)
		if err := os.MkdirAll(filepath.Dir(path(key)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path(key), []byte(v2), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeV2(key)

	if _, ok := store.Get(key); ok {
		t.Error("Get served a v2 entry")
	}
	if _, ok := store.Probe(key); ok {
		t.Error("Probe served a v2 entry")
	}
	if d, ok := store.ElapsedHint(key); !ok || d != 4242 {
		t.Errorf("ElapsedHint of a v2 entry = %v, %v; want its 4242ns", d, ok)
	}

	res, err := (Executor{Workers: 1, Store: store}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses, puts := store.Stats(); misses != 2 || puts != 1 {
		t.Errorf("sweep over a v2 entry: misses=%d puts=%d, want 2 (Get above + sweep) and 1", misses, puts)
	}
	data, err := os.ReadFile(path(key))
	if err != nil {
		t.Fatal(err)
	}
	var head struct {
		Schema int `json:"schema"`
		Run    struct {
			Completions json.RawMessage `json:"completions"`
		} `json:"run"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		t.Fatal(err)
	}
	if head.Schema != resultstore.SchemaVersion || !strings.HasPrefix(string(head.Run.Completions), `"`) {
		t.Errorf("entry after the sweep: schema %d, completions %.20s…; want v%d with a blob",
			head.Schema, head.Run.Completions, resultstore.SchemaVersion)
	}
	ent, ok := store.Get(key)
	if !ok {
		t.Fatal("re-simulated entry not served")
	}
	if got := ent.Run.Result(); !reflect.DeepEqual(got.Completions, res.Results[0].Run.Completions) {
		t.Error("re-simulated entry serves different completions than the run that wrote it")
	}

	leftover := strings.Repeat("ab", 32)
	writeV2(leftover)
	st, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, puts := store.ArtifactStats(); puts != 1 {
		t.Errorf("sweep wrote %d artifacts, want 1: the scenario's ideal baseline", puts)
	}
	if st.Removed != 1 || st.Kept != 2 {
		t.Errorf("gc removed %d kept %d, want the v2 leftover removed and the v3 entry plus the ideal artifact kept", st.Removed, st.Kept)
	}
	if _, err := os.Stat(path(leftover)); !os.IsNotExist(err) {
		t.Errorf("v2 leftover survived gc: %v", err)
	}
}

// TestStoreMissOnChangedConfig: any change to a hash input — workload
// seed, RU count, latency, policy, a feature flag — must miss.
func TestStoreMissOnChangedConfig(t *testing.T) {
	store := openStore(t)
	ex := Executor{Workers: 2, Store: store}
	base := fig9Spec(t, 4)
	base.Policies = base.Policies[:1] // LRU only: 1 scenario
	if _, err := ex.Run(base); err != nil {
		t.Fatal(err)
	}

	variants := map[string]func(Spec) Spec{
		"rus":     func(s Spec) Spec { s.RUs = []int{5}; return s },
		"latency": func(s Spec) Spec { s.Latencies = []simtime.Time{simtime.FromMs(8)}; return s },
		"policy": func(s Spec) Spec {
			s.Policies = []PolicySpec{Fixed("MRU", policy.NewMRU())}
			return s
		},
		"flag": func(s Spec) Spec {
			p := s.Policies[0]
			p.CrossGraphPrefetch = true
			s.Policies = []PolicySpec{p}
			return s
		},
		"baseline": func(s Spec) Spec { s.NoBaseline = true; return s },
		"workload": func(s Spec) Spec {
			other := fig9Spec(t, 4) // fresh draw shares content but not templates…
			s.Workloads = []Workload{{Label: "other", Pool: other.Workloads[0].Pool, Seq: other.Workloads[0].Seq[:30]}}
			return s
		},
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			_, missesBefore, _ := store.Stats()
			if _, err := ex.Run(mutate(base)); err != nil {
				t.Fatal(err)
			}
			_, missesAfter, _ := store.Stats()
			if missesAfter == missesBefore {
				t.Errorf("changed %s did not miss the store", name)
			}
		})
	}
}

// TestStoreBypassesUncacheableSpecs: trace-recording sweeps and per-task
// latency sweeps run correctly and leave the store untouched.
func TestStoreBypassesUncacheableSpecs(t *testing.T) {
	store := openStore(t)
	ex := Executor{Workers: 2, Store: store}

	traced := fig9Spec(t, 4)
	traced.Policies = traced.Policies[:1]
	traced.RecordTrace = true
	rs, err := ex.Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Results[0].Run.Trace == nil {
		t.Error("trace-recording sweep lost its trace")
	}

	het := fig9Spec(t, 4)
	het.Policies = het.Policies[:1]
	het.LatencyFor = func(taskgraph.TaskID) simtime.Time { return simtime.FromMs(2) }
	het.NoBaseline = true
	if _, err := ex.Run(het); err != nil {
		t.Fatal(err)
	}

	noKey := fig9Spec(t, 4)
	noKey.Policies = []PolicySpec{{Name: "hand-built", New: func() (policy.Policy, error) { return policy.NewLRU(), nil }}}
	if _, err := ex.Run(noKey); err != nil {
		t.Fatal(err)
	}

	if hits, misses, puts := store.Stats(); hits != 0 || misses != 0 || puts != 0 {
		t.Errorf("uncacheable sweeps touched the store: %d/%d/%d", hits, misses, puts)
	}
}

// TestNoStoreWritesAfterCancel is the failed-sweep persistence pin: a
// worker still in flight when the first error cancels the sweep must
// not write its scenario to the store. The test sequences the races
// away: one worker fails immediately while two others block inside
// their policy constructors until the cancellation has happened, so
// every surviving scenario provably completes post-cancel.
func TestNoStoreWritesAfterCancel(t *testing.T) {
	store := openStore(t)
	release := make(chan struct{})
	blocker := func(key string) PolicySpec {
		return PolicySpec{
			Name: key,
			Key:  key,
			New: func() (policy.Policy, error) {
				<-release // held until the sweep is cancelled
				return policy.NewLRU(), nil
			},
		}
	}
	boom := fmt.Errorf("boom")
	spec := fig9Spec(t, 4)
	spec.Policies = []PolicySpec{
		blocker("blocker-a"),
		{Name: "broken", Key: "broken", New: func() (policy.Policy, error) { return nil, boom }},
		blocker("blocker-b"),
	}
	ex := Executor{Workers: 2, Store: store}
	ex.onCancel = func() { close(release) }
	_, err := ex.Run(spec)
	if err == nil {
		t.Fatal("failing sweep succeeded")
	}
	if !strings.Contains(err.Error(), "scenario 1") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error = %q, want the boom scenario", err)
	}
	if _, _, puts := store.Stats(); puts != 0 {
		t.Errorf("cancelled sweep persisted %d scenarios that completed after the failure", puts)
	}
}

// TestPreCancelWritesSurvive: scenarios persisted before the error
// struck stay in the store — only post-cancel writes are suppressed.
func TestPreCancelWritesSurvive(t *testing.T) {
	store := openStore(t)
	spec := fig9Spec(t, 4)
	spec.Policies = []PolicySpec{
		spec.Policies[0], // LRU, completes and persists first
		{Name: "broken", Key: "broken", New: func() (policy.Policy, error) { return nil, fmt.Errorf("boom") }},
		spec.Policies[3], // never dispatched on a sequential pool
	}
	if _, err := (Executor{Workers: 1, Store: store, SpecOrderDispatch: true}).Run(spec); err == nil {
		t.Fatal("failing sweep succeeded")
	}
	if _, _, puts := store.Stats(); puts != 1 {
		t.Errorf("sweep persisted %d scenarios, want exactly the one completed before the error", puts)
	}
}

// TestDuplicateAxisValuesRejected: a repeated axis value is the same
// scenario hash twice in one grid and must fail loudly, not run twice.
func TestDuplicateAxisValuesRejected(t *testing.T) {
	cases := map[string]func(*Spec){
		"rus":      func(s *Spec) { s.RUs = []int{4, 5, 4} },
		"latency":  func(s *Spec) { s.Latencies = append(s.Latencies, s.Latencies[0]) },
		"policy":   func(s *Spec) { s.Policies = append(s.Policies, s.Policies[0]) },
		"workload": func(s *Spec) { s.Workloads = append(s.Workloads, s.Workloads[0]) },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			spec := fig9Spec(t, 4, 5)
			mutate(&spec)
			if _, err := spec.Expand(); err == nil {
				t.Fatalf("duplicate %s axis value accepted", name)
			} else if !strings.Contains(err.Error(), "duplicate") {
				t.Errorf("error %q does not name the duplicate", err)
			}
			if _, err := Run(spec); err == nil {
				t.Fatalf("sweep with duplicate %s axis value ran", name)
			}
		})
	}
	// Distinct display names over the same configuration are still two
	// identical simulations — rejected too.
	spec := fig9Spec(t, 4)
	renamed := spec.Policies[0]
	renamed.Name = "LRU (again)"
	spec.Policies = append(spec.Policies, renamed)
	if _, err := spec.Expand(); err != nil {
		t.Fatalf("renamed duplicate rejected structurally: %v — want hash-level rejection only", err)
	}
	if _, err := spec.ScenarioKeys(); err != nil {
		// Renaming changes the hash (the name is reported output), so
		// this is a valid, distinct grid for the store too.
		t.Fatalf("renamed series should hash distinctly: %v", err)
	}
}
