package manager

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// reusePolicies builds one policy instance per family for the reuse
// property tests; the Random seed varies with the trial so the stateful
// path is exercised across different streams.
func reusePolicies(t *testing.T, trial int) []policy.Policy {
	t.Helper()
	local, err := policy.NewLocalLFD(1 + trial%3)
	if err != nil {
		t.Fatal(err)
	}
	return []policy.Policy{
		policy.NewLRU(),
		policy.NewFIFO(),
		policy.NewMRU(),
		policy.NewRandom(int64(trial*7 + 1)),
		policy.NewLFD(),
		local,
	}
}

// TestRunnerReuseByteIdentical is the invariant the whole pooled-state
// design hangs on: a Runner that has already executed arbitrary other
// workloads produces exactly the result — counters, completion times,
// full trace — a fresh Runner produces. Every state dimension is cycled:
// policy family (including the stateful Random), unit count, latency,
// skip-events with mobilities, cross-graph prefetch, graph sizes that
// shrink and grow between runs.
func TestRunnerReuseByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20110516))
	reused := NewRunner()
	for trial := 0; trial < 90; trial++ {
		seq := randomWorkload(t, rng, 1+rng.Intn(4), 1+rng.Intn(10))
		pols := reusePolicies(t, trial)
		cfg := Config{
			RUs:         1 + rng.Intn(5),
			Latency:     simtime.Time(rng.Int63n(int64(simtime.FromMs(6)))),
			Policy:      pols[trial%len(pols)],
			RecordTrace: true,
		}
		switch trial % 4 {
		case 1:
			cfg.SkipEvents = true
			table := make(map[*taskgraph.Graph][]int)
			for _, g := range seq {
				if _, ok := table[g]; !ok {
					vals := make([]int, g.NumTasks())
					for i := range vals {
						vals[i] = rng.Intn(3)
					}
					table[g] = vals
				}
			}
			cfg.Mobility = func(g *taskgraph.Graph) []int { return table[g] }
		case 2:
			cfg.CrossGraphPrefetch = true
		case 3:
			cfg.CrossGraphPrefetch = true
			cfg.ConservativePrefetch = true
		}
		// The same policy instance serves both runs: Runner.Reset rewinds
		// stateful policies, so sharing it is part of what is under test.
		want, err := NewRunner().Run(cfg, dynlist.NewSequence(seq...))
		if err != nil {
			t.Fatalf("trial %d: fresh runner: %v", trial, err)
		}
		got, err := reused.Run(cfg, dynlist.NewSequence(seq...))
		if err != nil {
			t.Fatalf("trial %d: reused runner: %v", trial, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (%s, R=%d): reused runner diverged from fresh\nfresh:  %+v\nreused: %+v",
				trial, cfg.Policy.Name(), cfg.RUs, want, got)
		}
	}
}

// TestRunnerRerunIdentical: running the same scenario twice on one Runner
// yields identical results — the Random policy's in-place reseed
// included.
func TestRunnerRerunIdentical(t *testing.T) {
	seq := append(workload.Multimedia(), workload.Multimedia()...)
	cfg := Config{
		RUs: 4, Latency: workload.PaperLatency(),
		Policy: policy.NewRandom(3), RecordTrace: true,
	}
	r := NewRunner()
	first, err := r.Run(cfg, dynlist.NewSequence(seq...))
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(cfg, dynlist.NewSequence(seq...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-run diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// loopCase is one configuration of the hot-loop coverage set.
type loopCase struct {
	name string
	cfg  Config
}

// loopCases returns a random 40-application workload and the thirteen
// configurations that together reach every path of the event loop: each
// policy family, skip events, both prefetch modes.
func loopCases(t *testing.T) ([]*taskgraph.Graph, []loopCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	seq := randomWorkload(t, rng, 3, 40)
	mobTable := make(map[*taskgraph.Graph][]int)
	for _, g := range seq {
		if _, ok := mobTable[g]; !ok {
			vals := make([]int, g.NumTasks())
			for i := range vals {
				vals[i] = rng.Intn(3)
			}
			mobTable[g] = vals
		}
	}
	local, local1, local4 := mustLocalLFD(t, 2), mustLocalLFD(t, 1), mustLocalLFD(t, 4)
	mobility := func(g *taskgraph.Graph) []int { return mobTable[g] }
	return seq, []loopCase{
		{"LRU", Config{RUs: 4, Latency: workload.PaperLatency(), Policy: policy.NewLRU()}},
		{"FIFO", Config{RUs: 3, Latency: workload.PaperLatency(), Policy: policy.NewFIFO()}},
		{"MRU", Config{RUs: 4, Latency: workload.PaperLatency(), Policy: policy.NewMRU()}},
		{"Random", Config{RUs: 4, Latency: workload.PaperLatency(), Policy: policy.NewRandom(11)}},
		{"LFD", Config{RUs: 4, Latency: workload.PaperLatency(), Policy: policy.NewLFD()}},
		{"LocalLFD2", Config{RUs: 4, Latency: workload.PaperLatency(), Policy: local}},
		{"LocalLFD1", Config{RUs: 4, Latency: workload.PaperLatency(), Policy: local1}},
		{"LocalLFD4", Config{RUs: 3, Latency: workload.PaperLatency(), Policy: local4}},
		{"LocalLFD2+Skip", Config{
			RUs: 4, Latency: workload.PaperLatency(), Policy: local,
			SkipEvents: true, Mobility: mobility,
		}},
		{"LFD+Skip", Config{
			RUs: 4, Latency: workload.PaperLatency(), Policy: policy.NewLFD(),
			SkipEvents: true, Mobility: mobility,
		}},
		{"LRU+Prefetch", Config{
			RUs: 4, Latency: workload.PaperLatency(), Policy: policy.NewLRU(),
			CrossGraphPrefetch: true,
		}},
		{"LFD+Prefetch", Config{
			RUs: 4, Latency: workload.PaperLatency(), Policy: policy.NewLFD(),
			CrossGraphPrefetch: true,
		}},
		{"LocalLFD1+ConservativePrefetch", Config{
			RUs: 4, Latency: workload.PaperLatency(), Policy: local1,
			CrossGraphPrefetch: true, ConservativePrefetch: true,
		}},
	}
}

// TestEventLoopSteadyStateAllocs pins the tentpole guarantee: once a
// Runner is warm, preparing and executing a whole simulation — event
// loop, replacement decisions, next-use index build and queries, instance
// bookkeeping, per-task latencies — allocates nothing, in every golden
// configuration. Only the final result snapshot (which must escape) is
// excluded, by driving the unexported phases directly.
func TestEventLoopSteadyStateAllocs(t *testing.T) {
	for _, c := range goldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			feed := c.feed()
			r := NewRunner()
			runOnce := func() {
				if err := r.Reset(c.cfg); err != nil {
					t.Fatal(err)
				}
				if err := r.start(feed); err != nil {
					t.Fatal(err)
				}
				if err := r.loop(); err != nil {
					t.Fatal(err)
				}
			}
			runOnce() // warm: grow every buffer to its high-water mark
			if avg := testing.AllocsPerRun(5, runOnce); avg != 0 {
				t.Errorf("steady-state run allocates %.1f times, want 0", avg)
			}
		})
	}
}

// TestRunnerResetRejectsBadConfig: Reset validates like Run always has,
// and a failed Reset leaves the Runner usable for a correct config.
func TestRunnerResetRejectsBadConfig(t *testing.T) {
	r := NewRunner()
	if err := r.Reset(Config{RUs: 0, Policy: policy.NewLRU()}); err == nil {
		t.Error("Reset accepted 0 units")
	}
	if err := r.Reset(Config{RUs: 1}); err == nil {
		t.Error("Reset accepted nil policy")
	}
	if err := r.Reset(Config{RUs: 1, Latency: -1, Policy: policy.NewLRU()}); err == nil {
		t.Error("Reset accepted negative latency")
	}
	g := workload.JPEG()
	res, err := r.Run(Config{RUs: 4, Latency: workload.PaperLatency(), Policy: policy.NewLRU()},
		dynlist.NewSequence(g))
	if err != nil {
		t.Fatalf("runner unusable after rejected configs: %v", err)
	}
	if res.Graphs != 1 {
		t.Errorf("graphs = %d, want 1", res.Graphs)
	}
}
