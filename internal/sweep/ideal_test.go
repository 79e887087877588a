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
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/storetest"
	"repro/internal/taskgraph"
)

// twoWorkloadSpec is fig9Spec with a second, differently drawn workload,
// so ideal baselines are keyed by workload content as well as RUs.
func twoWorkloadSpec(t testing.TB, rus ...int) Spec {
	t.Helper()
	spec := fig9Spec(t, rus...)
	pool := spec.Workloads[0].Pool
	feed, err := dynlist.RandomSequence(pool, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var seq []*taskgraph.Graph
	for _, it := range feed.Remaining() {
		seq = append(seq, it.Graph)
	}
	spec.Workloads = append(spec.Workloads, Workload{Label: "seed 7", Pool: pool, Seq: seq})
	return spec
}

// idealLookups counts the distinct (workload, RUs) pairs among the
// scenarios a shard of spec owns: the artifact lookups one executor makes.
func idealLookups(t *testing.T, spec Spec) (n int, pairs map[idealID]bool) {
	t.Helper()
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pairs = make(map[idealID]bool)
	for _, sc := range scenarios {
		if spec.Shard.Owns(sc.Index) {
			pairs[idealID{workload: sc.WorkloadIdx, rus: sc.RUs}] = true
		}
	}
	return len(pairs), pairs
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

// TestIdealBaselineSharedAcrossExecutors is the work-removal pin: one
// grid populated as four shards, then a second grid over the same
// workloads, all into one store, simulate each distinct (workload, RUs)
// ideal baseline exactly once — one artifact put per pair, a hit for
// every other lookup — and every shard's results equal a no-store run's.
func TestIdealBaselineSharedAcrossExecutors(t *testing.T) {
	first := twoWorkloadSpec(t, 4, 5)
	second := twoWorkloadSpec(t, 5, 6)
	second.Latencies = []simtime.Time{simtime.FromMs(8)}
	second.Policies = []PolicySpec{second.Policies[0], Fixed("MRU", policy.NewMRU())}

	refFirst, err := Run(first)
	if err != nil {
		t.Fatal(err)
	}
	refSecond, err := Run(second)
	if err != nil {
		t.Fatal(err)
	}

	for _, bk := range storetest.Backends(t) {
		t.Run(bk.Name, func(t *testing.T) {
			store, _ := bk.Open(t)
			lookups := 0
			distinct := make(map[idealID]bool)
			const shards = 4
			for i := 0; i < shards; i++ {
				sp := first
				sp.Shard = Shard{Index: i, Count: shards}
				n, pairs := idealLookups(t, sp)
				lookups += n
				for p := range pairs {
					distinct[p] = true
				}
				rs, err := (Executor{Workers: 2, Store: store}).Run(sp)
				if err != nil {
					t.Fatal(err)
				}
				sameAsReference(t, "shard "+sp.Shard.String(), rs.Results, refFirst)
			}
			n, pairs := idealLookups(t, second)
			lookups += n
			for p := range pairs {
				distinct[p] = true
			}
			rs, err := (Executor{Workers: 2, Store: store}).Run(second)
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, "second grid", rs.Results, refSecond)

			hits, misses, puts := store.ArtifactStats()
			want := int64(len(distinct)) // 2 workloads × RUs {4, 5, 6}
			if want != 6 || puts != want || misses != want || hits != int64(lookups)-want {
				t.Errorf("artifacts: %d hits, %d misses, %d puts; want %d hits, %d misses, %d puts (%d lookups, %d distinct pairs)",
					hits, misses, puts, int64(lookups)-want, want, want, lookups, want)
			}
		})
	}
}

// idealArtifact reads the ideal baseline artifact filed under key through
// a fresh handle, failing the test when it is absent or not current.
func idealArtifact(t *testing.T, store *resultstore.Store, key string) *resultstore.Run {
	t.Helper()
	a, ok := resultstore.FromBackend(store.Backend()).GetArtifact(key, resultstore.IdealKind, resultstore.SchemaVersion)
	if !ok {
		t.Fatalf("no current ideal artifact under %s", key[:12])
	}
	var run resultstore.Run
	if err := json.Unmarshal(a.Payload, &run); err != nil {
		t.Fatalf("ideal artifact payload: %v", err)
	}
	return &run
}

// TestIdealArtifactInvalidation: an ideal artifact of a stale kind
// version, or whose payload does not decode into the workload's run, is
// a miss — re-simulated and overwritten in place under the same key —
// GC keeps a current one, and a failed artifact write is counted without
// losing any result.
func TestIdealArtifactInvalidation(t *testing.T) {
	spec := fig9Spec(t, 4)
	spec.Policies = spec.Policies[:1]
	ref, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantIdeal := resultstore.RecordRun(ref.Results[0].Ideal)
	wlKey, err := workloadKey(&spec.Workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	key := idealKey(wlKey, 4)
	// A tampered payload is decodable but wrong, so serving it would show
	// in the summary.
	tampered := *wantIdeal
	tampered.Makespan++
	tamperedPayload, err := json.Marshal(&tampered)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]resultstore.Artifact{
		"stale kind version": {Kind: resultstore.IdealKind, KindVersion: resultstore.SchemaVersion - 1, Payload: tamperedPayload},
		"undecodable":        {Kind: resultstore.IdealKind, KindVersion: resultstore.SchemaVersion, Payload: json.RawMessage(`{"completions":"!"}`)},
		"wrong shape":        {Kind: resultstore.IdealKind, KindVersion: resultstore.SchemaVersion, Payload: json.RawMessage(`{"makespan":1,"graphs":1}`)},
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
			if _, _, puts := fresh.ArtifactStats(); puts != 1 {
				t.Errorf("%d artifact puts, want the ideal re-simulated and written once", puts)
			}
			if run := idealArtifact(t, fresh, key); !reflect.DeepEqual(run, wantIdeal) {
				t.Errorf("artifact after the sweep: %+v, want the simulated ideal %+v", run, wantIdeal)
			}
			st, err := fresh.GC()
			if err != nil {
				t.Fatal(err)
			}
			if st.Removed != 0 || st.Kept != 2 {
				t.Errorf("gc removed %d kept %d, want the entry and the ideal artifact kept", st.Removed, st.Kept)
			}
			if run := idealArtifact(t, fresh, key); !reflect.DeepEqual(run, wantIdeal) {
				t.Error("gc changed the ideal artifact")
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
			t.Errorf("%d result puts, want the scenario stored despite the failed artifact write", puts)
		}
		if _, _, puts := store.ArtifactStats(); puts != 0 {
			t.Errorf("%d artifact puts counted, want 0 (the write failed)", puts)
		}
		if line := store.SummaryLine(); !strings.Contains(line, "; 1 writes FAILED") {
			t.Errorf("summary line %q does not count the failed artifact write", line)
		}
		if plan.InjectedTotal() != 1 {
			t.Errorf("%d faults injected, want 1", plan.InjectedTotal())
		}
	})
}

// TestIdealBaselineBypassesStoreWithoutKeys: an uncacheable spec never
// touches the artifact space, so it behaves as a storeless sweep.
func TestIdealBaselineBypassesStoreWithoutKeys(t *testing.T) {
	store := resultstore.OpenMem()
	spec := fig9Spec(t, 4)
	spec.Policies = []PolicySpec{{Name: "hand-built", New: func() (policy.Policy, error) { return policy.NewLRU(), nil }}}
	rs, err := (Executor{Workers: 1, Store: store}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Results[0].Ideal.Templates == nil {
		t.Error("ideal of an uncacheable spec lost its templates: it was not simulated")
	}
	if hits, misses, puts := store.ArtifactStats(); hits+misses+puts != 0 {
		t.Errorf("uncacheable spec touched the artifact space: %d/%d/%d", hits, misses, puts)
	}
}

// renderRows renders each result as one line: scenario, summary and the
// stored form of its ideal baseline, completions included.
func renderRows(results []*Result) []string {
	rows := make([]string, len(results))
	for i, r := range results {
		rows[i] = fmt.Sprintf("%s %+v %+v", r.Scenario.Name(), *r.Summary, *resultstore.RecordRun(r.Ideal))
	}
	return rows
}

// TestMergeSurvivesDamagedIdealArtifacts: since schema v4 the ideal-run
// artifact is the only stored copy of a baseline, so a merge must
// survive losing one. With one artifact deleted and another truncated,
// a RequireStored merge and a StoreWait watch merge each serve every
// entry (0 misses), render rows byte-identical to a live run, and
// re-simulate exactly the two affected baselines, writing them back.
func TestMergeSurvivesDamagedIdealArtifacts(t *testing.T) {
	spec := twoWorkloadSpec(t, 4, 5)
	ref, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(ref.Results)
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	_, wlKeys, err := spec.scenarioKeysFor(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	wantIdeal := make(map[string]*resultstore.Run)
	for _, r := range ref.Results {
		wantIdeal[idealKey(wlKeys[r.Scenario.WorkloadIdx], r.Scenario.RUs)] = resultstore.RecordRun(r.Ideal)
	}
	deleted, torn := idealKey(wlKeys[0], 4), idealKey(wlKeys[1], 5)
	merges := []struct {
		name string
		wait *StoreWait
	}{
		{"require stored", nil},
		{"store wait", &StoreWait{Poll: time.Millisecond, Done: func() (bool, error) { return true, nil }}},
	}

	for _, bk := range storetest.Backends(t) {
		t.Run(bk.Name, func(t *testing.T) {
			store, reopen := bk.Open(t)
			if err := (Executor{Workers: 2, Store: store}).Collect(spec, Discard); err != nil {
				t.Fatal(err)
			}
			for _, m := range merges {
				b := store.Backend()
				if err := b.Delete(deleted); err != nil {
					t.Fatal(err)
				}
				data, ok := b.Load(torn)
				if !ok {
					t.Fatal("populate stored no ideal artifact to truncate")
				}
				if err := b.Store(torn, data[:len(data)/2]); err != nil {
					t.Fatal(err)
				}

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
				if hits, misses, puts := merge.ArtifactStats(); hits != int64(len(wantIdeal)-2) || misses != 2 || puts != 2 {
					t.Errorf("%s merge artifacts: %d hits, %d misses, %d puts; want %d hits and the 2 damaged baselines re-simulated and written",
						m.name, hits, misses, puts, len(wantIdeal)-2)
				}
				for _, k := range []string{deleted, torn} {
					if got := idealArtifact(t, store, k); !reflect.DeepEqual(got, wantIdeal[k]) {
						t.Errorf("%s merge wrote back %+v under %s, want %+v", m.name, got, k[:12], wantIdeal[k])
					}
				}
			}
		})
	}
}
