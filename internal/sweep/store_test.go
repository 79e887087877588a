package sweep

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/mobility"
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
// returns the cold run's summaries, delay digests included, and its run
// counters field for field — the property cmd/rtrrepro's
// TestEndToEnd/determinism checks end to end on the CLI. A hit carries
// no completion times and no ideal baseline: those are live-only. It runs against every
// registered store backend: serving from memory or the campaign database
// must reproduce the fs behavior bit for bit.
func TestStoreWarmRunIdentical(t *testing.T) {
	for _, bk := range storetest.Backends() {
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
				cr := *c.Run
				cr.Completions = nil // live-only, never stored
				if !reflect.DeepEqual(cr, *w.Run) {
					t.Errorf("scenario %d run diverged:\ncold %+v\nwarm %+v", i, cr, *w.Run)
				}
				if w.Ideal != nil {
					t.Errorf("scenario %d: a hit carries an ideal baseline", i)
				}
			}
		})
	}
}

// v4Entry is a literal entry of the last JSON layout, schema v4: the
// completions a base64 blob of varint deltas, no embedded ideal.
func v4Entry(key string) []byte {
	return fmt.Appendf(nil, `{"schema":4,"key":%q,"elapsed_ns":4242,`+
		`"run":{"makespan":70000,"executed":15,"reused":5,"loads":10,"evictions":6,"graphs":3,"completions":"kE4GCAE=","events":42},`+
		`"summary":{"PolicyName":"LRU","RUs":4,"Latency":4000,"Executed":15,"Reused":5,"Loads":10,"Makespan":70000,"IdealMakespan":50000}}`, key)
}

// v5Entry is a literal entry of the first binary layout, schema v5, as
// that layout's EncodeEntry wrote it for v4Entry's content: after the
// scenario label and elapsed time it still carries the attempt count
// (1), an empty last error and a zero retry time. The key is spliced
// in after its length byte (0x40: keys are 64 hex digits).
func v5Entry(key string) []byte {
	head, _ := hex.DecodeString("525452650a40")
	tail, _ := hex.DecodeString("00a44202000001e0c5081e0a140c000000062a02904e060801034c525508c03e1e0a1400e0c508a08d06")
	return append(append(head, key...), tail...)
}

// v6Entry is a literal entry of the last layout with completion times,
// schema v6, as that layout's EncodeEntry wrote it for v4Entry's
// content: v5Entry without the retry fields, the run ending in its
// completions section and the summary without a delay digest.
func v6Entry(key string) []byte {
	head, _ := hex.DecodeString("525452650c40")
	tail, _ := hex.DecodeString("00a44201e0c5081e0a140c000000062a02904e060801034c525508c03e1e0a1400e0c508a08d06")
	return append(append(head, key...), tail...)
}

// TestSchemaV2EntryMigrates pins four schema bumps on the fs layout,
// each on a literal entry of an older schema: v2, completions still a
// JSON integer array, v4, the last JSON layout, v5, the binary layout
// with the retry fields, and v6, the last layout with completion times.
// Get and Probe miss, a
// sweep re-simulates the scenario and overwrites the file in place at
// the current schema (and stores nothing else), and GC removes an old
// entry nobody re-simulated while it keeps the current entry.
func TestSchemaV2EntryMigrates(t *testing.T) {
	spec := fig9Spec(t, 4)
	spec.Policies = spec.Policies[:1]
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	key := keys[0]
	v2Entry := func(key string) []byte {
		return fmt.Appendf(nil, `{"schema":2,"key":%q,"elapsed_ns":4242,`+
			`"run":{"makespan":70000,"executed":15,"reused":5,"loads":10,"evictions":6,"graphs":3,"completions":[30000,70000],"events":42},`+
			`"ideal":{"makespan":50000,"executed":15,"loads":15,"evictions":0,"reused":0,"graphs":3,"completions":[20000,50000],"events":40}}`, key)
	}

	for _, old := range []struct {
		name  string
		entry func(key string) []byte
	}{{"v2", v2Entry}, {"v4", v4Entry}, {"v5", v5Entry}, {"v6", v6Entry}} {
		t.Run(old.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := resultstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			path := func(key string) string { return filepath.Join(dir, "objects", key[:2], key+".json") }
			write := func(key string) {
				t.Helper()
				if err := os.MkdirAll(filepath.Dir(path(key)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path(key), old.entry(key), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			write(key)

			if _, ok := store.Get(key); ok {
				t.Errorf("Get served a %s entry", old.name)
			}
			if _, ok := store.Probe(key); ok {
				t.Errorf("Probe served a %s entry", old.name)
			}

			res, err := (Executor{Workers: 1, Store: store}).Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, misses, puts := store.Stats(); misses != 2 || puts != 1 {
				t.Errorf("sweep over a %s entry: misses=%d puts=%d, want 2 (Get above + sweep) and 1", old.name, misses, puts)
			}
			files, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
			if err != nil || len(files) != 1 || files[0] != path(key) {
				t.Fatalf("store files after the sweep: %v (%v), want only %s", files, err, path(key))
			}
			data, err := os.ReadFile(path(key))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(data, old.entry(key)) {
				t.Fatalf("the sweep left the %s entry in place", old.name)
			}
			ent, ok := store.Get(key)
			if !ok {
				t.Fatal("re-simulated entry not served")
			}
			if ent.Schema != resultstore.SchemaVersion {
				t.Errorf("re-simulated entry has schema %d, want %d", ent.Schema, resultstore.SchemaVersion)
			}
			if want := resultstore.RecordRun(res.Results[0].Run); !reflect.DeepEqual(ent.Run, want) ||
				!reflect.DeepEqual(ent.Summary, res.Results[0].Summary) {
				t.Errorf("re-simulated entry serves %+v %+v, not the counters and summary of the run that wrote it", ent.Run, ent.Summary)
			}

			leftover := strings.Repeat("ab", 32)
			write(leftover)
			st, err := store.GC()
			if err != nil {
				t.Fatal(err)
			}
			if hits, misses, puts := store.ArtifactStats(); hits+misses+puts != 0 {
				t.Errorf("sweep made %d/%d/%d artifact hits/misses/puts, want none", hits, misses, puts)
			}
			if st.Removed != 1 || st.Kept != 1 {
				t.Errorf("gc removed %d kept %d, want the %s leftover removed and the current entry kept", st.Removed, st.Kept, old.name)
			}
			if _, err := os.Stat(path(leftover)); !os.IsNotExist(err) {
				t.Errorf("%s leftover survived gc: %v", old.name, err)
			}
		})
	}
}

// TestSchemaV3EntryMigrates pins the bumps from v3, v4, v5 and v6 on
// every backend. The v3 input is a literal entry that embeds its ideal
// baseline, the v4 input a literal of the last JSON layout, the v5
// input a literal of the binary layout with the retry fields, the v6
// input a literal of the last layout with completion times; each sits
// next to a v3 ideal-run artifact under the baseline's key. Get and
// Probe miss, a sweep re-simulates the scenario and overwrites the entry
// in place at the current schema, without an embedded ideal, and touches
// no artifact; GC then removes the ideal-run artifact and an old entry
// and artifact nobody re-simulated, while it keeps the current entry.
func TestSchemaV3EntryMigrates(t *testing.T) {
	spec := fig9Spec(t, 4)
	spec.Policies = spec.Policies[:1]
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := spec.scenarioKeysFor(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	key, ideal := keys[0], legacyIdealKey(t, &spec.Workloads[0], 4)
	const run = `{"makespan":70000,"executed":15,"reused":5,"loads":10,"evictions":6,"graphs":3,"completions":"kE4GCAE=","events":42}`
	const v3Ideal = `{"makespan":50000,"executed":15,"loads":15,"graphs":3,"completions":"kE4GCAE=","events":40}`
	v3Entry := func(key string) []byte {
		return fmt.Appendf(nil, `{"schema":3,"key":%q,"elapsed_ns":4242,"run":%s,"ideal":%s,`+
			`"summary":{"PolicyName":"LRU","RUs":4,"Latency":4000,"Executed":15,"Reused":5,"Loads":10,"Makespan":70000,"IdealMakespan":50000}}`,
			key, run, v3Ideal)
	}
	v3Artifact := func(key string) []byte {
		return fmt.Appendf(nil, `{"artifact_schema":1,"key":%q,"kind":%q,"kind_version":3,"payload":%s}`,
			key, idealRunKind, v3Ideal)
	}

	for _, bk := range storetest.Backends() {
		t.Run(bk.Name, func(t *testing.T) {
			for _, old := range []struct {
				name  string
				entry func(key string) []byte
			}{{"v3", v3Entry}, {"v4", v4Entry}, {"v5", v5Entry}, {"v6", v6Entry}} {
				t.Run(old.name, func(t *testing.T) {
					store, _ := bk.Open(t)
					b := store.Backend()
					write := func(key string, data []byte) {
						t.Helper()
						if err := b.Store(key, data); err != nil {
							t.Fatal(err)
						}
					}
					write(key, old.entry(key))
					write(ideal, v3Artifact(ideal))
					if _, ok := store.Get(key); ok {
						t.Errorf("Get served a %s entry", old.name)
					}
					if _, ok := store.Probe(key); ok {
						t.Errorf("Probe served a %s entry", old.name)
					}

					if _, err := (Executor{Workers: 1, Store: store}).Run(spec); err != nil {
						t.Fatal(err)
					}
					if _, misses, puts := store.Stats(); misses != 2 || puts != 1 {
						t.Errorf("sweep over a %s entry: misses=%d puts=%d, want 2 (Get above + sweep) and 1", old.name, misses, puts)
					}
					if hits, misses, puts := store.ArtifactStats(); hits+misses+puts != 0 {
						t.Errorf("sweep over a v3 ideal artifact: %d/%d/%d artifact hits/misses/puts, want none", hits, misses, puts)
					}
					data, ok := b.Load(key)
					if !ok {
						t.Fatal("entry gone after the sweep")
					}
					if bytes.Equal(data, old.entry(key)) {
						t.Fatalf("the sweep left the %s entry in place", old.name)
					}
					if ent, ok := store.Get(key); !ok || ent.Schema != resultstore.SchemaVersion {
						t.Errorf("entry after the sweep: served %v; want a v%d entry", ok, resultstore.SchemaVersion)
					}

					leftEntry, leftIdeal := strings.Repeat("ab", 32), strings.Repeat("cd", 32)
					write(leftEntry, old.entry(leftEntry))
					write(leftIdeal, v3Artifact(leftIdeal))
					st, err := store.GC()
					if err != nil {
						t.Fatal(err)
					}
					if st.Removed != 3 || st.Kept != 1 {
						t.Errorf("gc removed %d kept %d, want the ideal-run artifact and the two old leftovers removed and the current entry kept", st.Removed, st.Kept)
					}
					for _, k := range []string{ideal, leftEntry, leftIdeal} {
						if _, ok := b.Load(k); ok {
							t.Errorf("%s leftover %s survived gc", old.name, k[:12])
						}
					}
					if _, ok := store.Get(key); !ok {
						t.Error("gc lost the current entry")
					}
				})
			}
		})
	}
}

// TestSchemaV4IdealArtifactsCollected pins the upgrade of a store that
// holds the ideal-run artifacts v4 baselines were stored in, on every
// backend: current entries, one ideal-run artifact per (workload, RUs)
// and the mobility tables. Its
// first warm run renders rows byte-identical to a live run, loading each
// entry once and no artifact; GC then removes the ideal-run artifacts
// while it keeps every entry and mobility table.
func TestSchemaV4IdealArtifactsCollected(t *testing.T) {
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
	keys, err := spec.scenarioKeysFor(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	var tables []*mobility.Table
	for _, rus := range spec.RUs {
		_, ts, err := mobility.CachedAll(spec.Workloads[0].Pool, rus, spec.Latencies[0])
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, ts...)
	}

	for _, bk := range storetest.Backends() {
		t.Run(bk.Name, func(t *testing.T) {
			store, reopen := bk.Open(t)
			if err := (Executor{Workers: 2, Store: store}).Collect(spec, Discard); err != nil {
				t.Fatal(err)
			}
			ideals := plantIdealArtifacts(t, store, spec, ref)
			for _, tab := range tables {
				if err := artifact.NewTableStore(store).StoreTable(tab); err != nil {
					t.Fatal(err)
				}
			}

			counter := &loadCounter{Backend: reopen(t).Backend(), loads: make(map[string]int)}
			warm := resultstore.FromBackend(counter)
			rs, err := (Executor{Workers: 2, Store: warm}).Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderRows(rs.Results); !reflect.DeepEqual(got, want) {
				t.Errorf("first run rows differ from the live run:\n got %q\nwant %q", got, want)
			}
			wantLoads(t, "first run", counter.take(), keys)
			if hits, misses, puts := warm.ArtifactStats(); hits+misses+puts != 0 {
				t.Errorf("first run artifacts: %d hits, %d misses, %d puts; want none", hits, misses, puts)
			}

			st, err := warm.GC()
			if err != nil {
				t.Fatal(err)
			}
			if st.Removed != len(ideals) || st.Kept != len(keys)+len(tables) {
				t.Errorf("gc removed %d kept %d, want the %d ideal-run artifacts removed and %d entries plus %d mobility tables kept",
					st.Removed, st.Kept, len(ideals), len(keys), len(tables))
			}
			for _, k := range ideals {
				if _, ok := warm.Backend().Load(k); ok {
					t.Errorf("ideal-run artifact %s survived gc", k[:12])
				}
			}
			for _, k := range keys {
				if _, ok := warm.Get(k); !ok {
					t.Errorf("gc lost entry %s", k[:12])
				}
			}
			for _, tab := range tables {
				if _, ok := artifact.NewTableStore(warm).LoadTable(tab.Graph, tab.RUs, tab.Latency); !ok {
					t.Errorf("gc lost the mobility table of %s at R=%d", tab.Graph.Name(), tab.RUs)
				}
			}
		})
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
	if _, err := (Executor{Workers: 1, Store: store}).Run(spec); err == nil {
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

// TestElapsedRecordedAndServed: a cold store-backed sweep records every
// scenario's measured wall time on its entry (elapsed_ns, read back
// through Get), and a warm re-run — which simulates nothing — reports
// zero Elapsed on its results instead of replaying the stored
// measurement as its own.
func TestElapsedRecordedAndServed(t *testing.T) {
	spec := fig9Spec(t, 4)
	store := openStore(t)
	ex := Executor{Workers: 2, Store: store}

	cold, err := ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cold.Results {
		if r.Elapsed <= 0 {
			t.Errorf("cold scenario %s has no measured elapsed time", r.Scenario.Name())
		}
	}
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		ent, ok := store.Get(key)
		if !ok {
			t.Fatalf("no entry stored for %s", key[:12])
		}
		if ent.ElapsedNS != cold.Results[i].Elapsed.Nanoseconds() {
			t.Errorf("entry for %s records elapsed_ns %d, the run measured %v", key[:12], ent.ElapsedNS, cold.Results[i].Elapsed)
		}
	}

	warm, err := ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range warm.Results {
		if r.Elapsed != 0 {
			t.Errorf("store-served scenario %s claims a measured elapsed time of %v", r.Scenario.Name(), r.Elapsed)
		}
	}
}
