package sweep

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// goldenSpec is a small, fully deterministic grid over the paper's Fig. 2
// workload: stable content, every policy constructor, both skip states
// and a no-baseline variant.
func goldenSpec() Spec {
	seq := workload.Fig2Sequence()
	return Spec{
		Workloads: []Workload{{Label: "fig2", Seq: seq}},
		RUs:       []int{4},
		Latencies: []simtime.Time{workload.PaperLatency()},
		Policies: []PolicySpec{
			mustFromSpec("lru", false),
			mustFromSpec("locallfd:1", true),
			mustFromSpec("lfd", false),
		},
	}
}

func mustFromSpec(spec string, skip bool) PolicySpec {
	p, err := FromSpec(spec, skip)
	if err != nil {
		panic(err)
	}
	return p
}

// TestScenarioKeysGolden pins the canonical config hashes for
// representative scenarios. These keys name entries in every persisted
// result store: if this test fails, the hash recipe changed and every
// existing store is silently invalidated (or worse, mis-addressed). That
// may be intentional — then bump resultstore.SchemaVersion, regenerate
// the constants below (the failure message prints the new values) and
// say so in CHANGES.md — but it must never happen by accident.
func TestScenarioKeysGolden(t *testing.T) {
	spec := goldenSpec()
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	// Regenerated for schema v2: the schema version moved out of the key
	// (it governs entry validity in place), so these digests are a pure
	// function of the scenario configuration and stay put across bumps.
	want := []string{
		"93615d8fe32621f46b349d3ee7815a11a9c11a362710b23c94075777b238aecd",
		"145c31232195bc877b30d9d85beafb3cad5da6e10d950a3c8723b416071b33b4",
		"0c3d774368103cf9c36168a779dcb80bd2894bd500f46276e4f0b182c7474151",
	}
	if len(keys) != len(want) {
		t.Fatalf("%d keys for %d scenarios", len(keys), len(want))
	}
	for i, k := range keys {
		if k != want[i] {
			t.Errorf("scenario %d key\n got %s\nwant %s\n(hash inputs changed — bump resultstore.SchemaVersion and regenerate)", i, k, want[i])
		}
	}

	noBase := spec
	noBase.NoBaseline = true
	nbKeys, err := noBase.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	const wantNoBase = "c3e2f658a3f1c110a5aaeb9fcbc1571ff3a992751b009afef47a4b796c2632bb"
	if nbKeys[0] != wantNoBase {
		t.Errorf("no-baseline key\n got %s\nwant %s", nbKeys[0], wantNoBase)
	}
}

// TestScenarioKeysSensitivity checks every declared hash input actually
// moves the hash, and that recomputation is stable.
func TestScenarioKeysSensitivity(t *testing.T) {
	base := goldenSpec()
	baseKeys, err := base.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	recomputed := goldenSpec()
	again, err := recomputed.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseKeys {
		if baseKeys[i] != again[i] {
			t.Fatalf("keys unstable across recomputation at %d", i)
		}
	}
	// All scenarios of one grid are pairwise distinct.
	seen := map[string]bool{}
	for _, k := range baseKeys {
		if seen[k] {
			t.Fatalf("key %s repeats within the grid", k)
		}
		seen[k] = true
	}

	mutations := map[string]func(*Spec){
		"rus":      func(s *Spec) { s.RUs = []int{5} },
		"latency":  func(s *Spec) { s.Latencies = []simtime.Time{simtime.FromMs(8)} },
		"label":    func(s *Spec) { s.Workloads[0].Label = "renamed" },
		"sequence": func(s *Spec) { s.Workloads[0].Seq = s.Workloads[0].Seq[:3] },
		"name":     func(s *Spec) { s.Policies[0].Name = "LRU (display)" },
		"skip":     func(s *Spec) { s.Policies[0].Skip = true },
		"prefetch": func(s *Spec) { s.Policies[0].CrossGraphPrefetch = true },
		"conserve": func(s *Spec) { s.Policies[0].ConservativePrefetch = true },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			spec := goldenSpec()
			mutate(&spec)
			keys, err := spec.ScenarioKeys()
			if err != nil {
				t.Fatal(err)
			}
			if keys[0] == baseKeys[0] {
				t.Errorf("mutating %s left the scenario key unchanged", name)
			}
		})
	}
}

// TestCacheable enumerates the uncacheable spec shapes.
func TestCacheable(t *testing.T) {
	ok := goldenSpec()
	if err := ok.Cacheable(); err != nil {
		t.Errorf("golden spec uncacheable: %v", err)
	}
	traced := goldenSpec()
	traced.RecordTrace = true
	if err := traced.Cacheable(); err == nil {
		t.Error("trace-recording spec reported cacheable")
	}
	het := goldenSpec()
	het.LatencyFor = func(taskgraph.TaskID) simtime.Time { return 0 }
	if err := het.Cacheable(); err == nil {
		t.Error("per-task-latency spec reported cacheable")
	}
	timed := goldenSpec()
	timed.Workloads[0].Arrivals = make([]simtime.Time, len(timed.Workloads[0].Seq))
	if err := timed.Cacheable(); err == nil {
		t.Error("timed-arrivals spec reported cacheable")
	}
	nokey := goldenSpec()
	nokey.Policies[0].Key = ""
	if err := nokey.Cacheable(); err == nil {
		t.Error("keyless policy spec reported cacheable")
	}
}

// TestWorkloadKeyAllocationsFlat: hashing a workload allocates per
// distinct template, never per application — the key of a 2000-app
// sequence costs no more allocations than that of a 200-app one.
func TestWorkloadKeyAllocationsFlat(t *testing.T) {
	pool := workload.Multimedia()
	allocs := func(apps int) float64 {
		w := &Workload{Label: "seed 1", Pool: pool, Seq: make([]*taskgraph.Graph, apps)}
		for i := range w.Seq {
			w.Seq[i] = pool[(i*7+i/3)%len(pool)]
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := workloadKey(w); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(200), allocs(2000); large > small {
		t.Errorf("workloadKey allocations grow with the sequence: %v at 200 apps, %v at 2000", small, large)
	}
}
