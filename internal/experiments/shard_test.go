package experiments

import (
	"bytes"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/storetest"
	"repro/internal/sweep"
)

// TestShardedPopulateMergeByteIdentical is the suite-level shard pin,
// the property cmd/rtrrepro's TestEndToEnd/shards checks through the
// rtrrepro binary: N
// shard populate runs into one store followed by a RequireStored render
// must emit reports byte-identical to a plain single-process run —
// covering the summary-grid path (fig9b), the NoBaseline counters path
// (variance) and the mixed stored/live path (sensitivity, whose
// heterogeneous half always runs live).
func TestShardedPopulateMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweeps in -short mode")
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 2011, Apps: 40, RUs: []int{4, 5}}
	exps := make([]Experiment, 0, 3)
	for _, id := range []string{"fig9b", "variance", "sensitivity"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		exps = append(exps, e)
	}

	render := func(opt Options) string {
		var buf bytes.Buffer
		for _, e := range exps {
			if err := e.Run(opt, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		return buf.String()
	}
	plain := render(base)

	const count = 2
	popOpt := base
	popOpt.Store = store
	totalRan, totalScenarios := 0, 0
	for idx := 0; idx < count; idx++ {
		st, err := Populate(popOpt, exps, sweep.Shard{Index: idx, Count: count})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", idx, count, err)
		}
		if st.Ran+st.SkippedByShard != st.Scenarios {
			t.Errorf("shard %d/%d stats don't tile: ran %d + skipped %d != %d",
				idx, count, st.Ran, st.SkippedByShard, st.Scenarios)
		}
		totalRan += st.Ran
		totalScenarios = st.Scenarios
	}
	if totalRan != totalScenarios {
		t.Errorf("shards ran %d scenarios, grids hold %d", totalRan, totalScenarios)
	}

	mergeOpt := base
	mergeOpt.Store = store
	mergeOpt.RequireStored = true
	hitsBefore, _, putsBefore := store.Stats()
	merged := render(mergeOpt)
	if merged != plain {
		t.Errorf("merged report diverged from the single-process run:\n--- plain ---\n%s\n--- merged ---\n%s", plain, merged)
	}
	hits, _, puts := store.Stats()
	if puts != putsBefore {
		t.Errorf("merge render wrote %d new entries — it re-simulated", puts-putsBefore)
	}
	if hits == hitsBefore {
		t.Error("merge render never read the store")
	}
}

// TestFig9MergeByteIdenticalAcrossBackends is the in-process form of
// cmd/rtrrepro's TestEndToEnd/shards, over every store backend the
// storetest registry holds: a sharded populate
// plus RequireStored merge of the fig9 grid must render byte-identically
// no matter which store backend holds the entries. Every backend's
// merged report is compared against the same plain single-process
// reference, so identity across backends follows transitively.
func TestFig9MergeByteIdenticalAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweeps in -short mode")
	}
	exp, ok := ByID("fig9b")
	if !ok {
		t.Fatal("experiment fig9b missing")
	}
	base := Options{Seed: 2011, Apps: 30, RUs: []int{4, 5}}
	render := func(opt Options) string {
		var buf bytes.Buffer
		if err := exp.Run(opt, &buf); err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		return buf.String()
	}
	plain := render(base)

	for _, bk := range storetest.Backends() {
		t.Run(bk.Name, func(t *testing.T) {
			store, reopen := bk.Open(t)
			const count = 2
			popOpt := base
			popOpt.Store = store
			for idx := 0; idx < count; idx++ {
				if _, err := Populate(popOpt, []Experiment{exp}, sweep.Shard{Index: idx, Count: count}); err != nil {
					t.Fatalf("shard %d/%d: %v", idx, count, err)
				}
			}
			// Merge through a fresh handle over the same data — the
			// separate merge process of a real campaign.
			mergeOpt := base
			mergeOpt.Store = reopen(t)
			mergeOpt.RequireStored = true
			if merged := render(mergeOpt); merged != plain {
				t.Errorf("merged report on %s diverged from the plain run:\n--- plain ---\n%s\n--- merged ---\n%s",
					bk.Name, plain, merged)
			}
			if _, _, puts := mergeOpt.Store.Stats(); puts != 0 {
				t.Errorf("merge render wrote %d new entries — it re-simulated", puts)
			}
		})
	}
}

// TestPopulateNeedsStore: populate without a store is a usage error, not
// a silent full local run.
func TestPopulateNeedsStore(t *testing.T) {
	if _, err := Populate(Options{}, All(), sweep.Shard{Index: 0, Count: 2}); err == nil {
		t.Error("Populate without a store accepted")
	}
}

// TestGridsDeclareCacheableSpecs: every experiment that declares grids
// must declare persistable ones — a GridsFunc returning an uncacheable
// Spec would make its shard runs silently useless (nothing written, the
// merge re-simulating everything it was supposed to skip).
func TestGridsDeclareCacheableSpecs(t *testing.T) {
	opt := Options{Seed: 2011, Apps: 10, RUs: []int{4}}
	declared := 0
	for _, e := range All() {
		if e.Grids == nil {
			continue
		}
		specs, err := e.Grids(opt)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(specs) == 0 {
			t.Errorf("%s declares a GridsFunc with no specs", e.ID)
		}
		for gi, sp := range specs {
			if err := sp.Cacheable(); err != nil {
				t.Errorf("%s grid %d is not persistable: %v", e.ID, gi, err)
			}
			if sp.Size() == 0 {
				t.Errorf("%s grid %d is empty", e.ID, gi)
			}
			if sp.Shard.Count != 0 {
				t.Errorf("%s grid %d pre-sets a shard", e.ID, gi)
			}
		}
		declared++
	}
	// The summary-grid experiments must all be shardable.
	if declared < 7 {
		t.Errorf("only %d experiments declare grids, want fig9a/b/c, ablation, sensitivity, prefetch, variance", declared)
	}
}
