package sweep

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/resultstore"
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

// referenceWorkloadKey is workloadKey's recipe written the plain way:
// every template framed in pool-then-first-appearance order, then one
// Hash.Int call per application.
func referenceWorkloadKey(t *testing.T, w *Workload) string {
	t.Helper()
	h := resultstore.NewHash()
	h.String("label", w.Label)
	index := make(map[*taskgraph.Graph]int)
	add := func(g *taskgraph.Graph) {
		if _, ok := index[g]; ok {
			return
		}
		data, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		h.Bytes("template:"+strconv.Itoa(len(index)), data)
		index[g] = len(index)
	}
	for _, g := range w.Pool {
		add(g)
	}
	h.Int("pool", int64(len(w.Pool)))
	for _, g := range w.Seq {
		add(g)
	}
	for _, g := range w.Seq {
		h.Int("seq", int64(index[g]))
	}
	return h.Sum()
}

// TestWorkloadKeyMatchesReference pins the key recipe at real size: for
// random workloads of 0 to 3000 applications — with and without a Pool,
// with sequences that draw templates from outside the pool, in runs of
// repeats or scattered — workloadKey equals the per-application
// reference, so a key never moves when its computation is sped up.
// TestScenarioKeysGolden's grid is too small to fill Hash's buffer.
func TestWorkloadKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	all := append(workload.Multimedia(), workload.Fig2Sequence()...)
	for trial := range 60 {
		templates := all[:1+rng.Intn(len(all))]
		w := &Workload{Label: fmt.Sprintf("trial %d", trial)}
		if trial%2 == 0 {
			// The pool leaves out some templates the sequence uses.
			w.Pool = templates[:rng.Intn(len(templates)+1)]
		}
		n := rng.Intn(3001)
		if trial%10 == 0 {
			n = rng.Intn(3)
		}
		w.Seq = make([]*taskgraph.Graph, n)
		run := 1 + rng.Intn(8) // the longest run of one template
		for i := range w.Seq {
			if i > 0 && rng.Intn(run) > 0 {
				w.Seq[i] = w.Seq[i-1]
			} else {
				w.Seq[i] = templates[rng.Intn(len(templates))]
			}
		}
		got, err := workloadKey(w)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceWorkloadKey(t, w); got != want {
			t.Fatalf("trial %d (%d apps, %d in the pool, of %d templates): key %s, the reference gives %s",
				trial, n, len(w.Pool), len(templates), got, want)
		}
	}
}

// BenchmarkWorkloadKey measures the key-hashing layer: one workloadKey
// of a 2000-application Fig. 9 workload, computed afresh (no memo).
func BenchmarkWorkloadKey(b *testing.B) {
	pool := workload.Multimedia()
	seq, err := dynlist.RandomSequence(pool, 2000, rand.New(rand.NewSource(2011)))
	if err != nil {
		b.Fatal(err)
	}
	w := &Workload{Pool: pool, Seq: seq}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := workloadKey(w); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWorkloadKeyMemoRelabelledCopy: copies of one memoized workload
// share its key, and a copy with another label, or another Seq slice,
// gets its own reference key even after the original's is memoized.
func TestWorkloadKeyMemoRelabelledCopy(t *testing.T) {
	pool := workload.Multimedia()
	seq, err := dynlist.RandomSequence(pool, 500, rand.New(rand.NewSource(2011)))
	if err != nil {
		t.Fatal(err)
	}
	shared := Workload{Pool: pool, Seq: seq}.WithKeyMemo()
	variants := []func(w *Workload){
		func(*Workload) {},
		func(w *Workload) { w.Label = "seed 2011" },
		func(*Workload) {},
		func(w *Workload) { w.Seq = w.Seq[:250] },
		func(w *Workload) { w.Pool = w.Pool[:2] },
		func(w *Workload) { w.Label = "seed 2011" },
	}
	for i, vary := range variants {
		w := shared
		vary(&w)
		got, err := workloadKey(&w)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceWorkloadKey(t, &w); got != want {
			t.Errorf("variant %d (label %q, %d apps, pool of %d): key %s, the reference gives %s",
				i, w.Label, len(w.Seq), len(w.Pool), got, want)
		}
	}
	if n := len(shared.keys.entries); n != 4 {
		t.Errorf("the memo holds %d keys for 4 distinct variants", n)
	}
}

// TestWorkloadKeyMemoConcurrent: copies of one memoized workload asked
// for their keys at once, under two labels, agree with the reference
// and hash each label once (run it with -race).
func TestWorkloadKeyMemoConcurrent(t *testing.T) {
	pool := workload.Multimedia()
	seq, err := dynlist.RandomSequence(pool, 2000, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	shared := Workload{Pool: pool, Seq: seq}.WithKeyMemo()
	labels := []string{"", "seed 7"}
	const copies = 8
	keys := make([]string, copies)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := shared
			w.Label = labels[i%len(labels)]
			k, err := workloadKey(&w)
			if err != nil {
				t.Error(err)
			}
			keys[i] = k
		}()
	}
	wg.Wait()
	for i, k := range keys {
		w := shared
		w.Label = labels[i%len(labels)]
		if want := referenceWorkloadKey(t, &w); k != want {
			t.Errorf("copy %d (label %q): key %s, the reference gives %s", i, w.Label, k, want)
		}
	}
	if n := len(shared.keys.entries); n != len(labels) {
		t.Errorf("the memo holds %d keys for %d labels", n, len(labels))
	}
}

// TestWorkloadKeyMemoMatchesReference runs TestWorkloadKeyMatchesReference's
// 60 random workloads through the memo: the first key, a second one
// served from the memo and a relabelled copy's all equal the reference.
func TestWorkloadKeyMemoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	all := append(workload.Multimedia(), workload.Fig2Sequence()...)
	for trial := range 60 {
		templates := all[:1+rng.Intn(len(all))]
		w := Workload{Label: fmt.Sprintf("trial %d", trial)}
		if trial%2 == 0 {
			w.Pool = templates[:rng.Intn(len(templates)+1)]
		}
		n := rng.Intn(3001)
		if trial%10 == 0 {
			n = rng.Intn(3)
		}
		w.Seq = make([]*taskgraph.Graph, n)
		run := 1 + rng.Intn(8)
		for i := range w.Seq {
			if i > 0 && rng.Intn(run) > 0 {
				w.Seq[i] = w.Seq[i-1]
			} else {
				w.Seq[i] = templates[rng.Intn(len(templates))]
			}
		}
		w = w.WithKeyMemo()
		relabelled := w
		relabelled.Label += " relabelled"
		for pass, c := range []*Workload{&w, &w, &relabelled} {
			got, err := workloadKey(c)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceWorkloadKey(t, c); got != want {
				t.Fatalf("trial %d pass %d (%d apps, %d in the pool, of %d templates): key %s, the reference gives %s",
					trial, pass, n, len(c.Pool), len(templates), got, want)
			}
		}
	}
}
