package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TestCrossGraphPrefetchThroughFacade: the extension is reachable from
// the public configuration and improves the Fig. 3 schedule beyond skip
// events (the boundary loads hide under the preceding graph).
func TestCrossGraphPrefetchThroughFacade(t *testing.T) {
	seq := workload.Fig3Sequence()
	base := Config{RUs: 4, Latency: ms(4), Policy: "locallfd:1"}

	plain, err := Evaluate(base, seq...)
	if err != nil {
		t.Fatal(err)
	}
	pf := base
	pf.CrossGraphPrefetch = true
	fetched, err := Evaluate(pf, seq...)
	if err != nil {
		t.Fatal(err)
	}
	if !fetched.Summary.Makespan.Before(plain.Summary.Makespan) {
		t.Errorf("prefetch did not improve: %v vs %v",
			fetched.Summary.Makespan, plain.Summary.Makespan)
	}
	if fetched.Run.Preloads == 0 {
		t.Error("no preloads recorded")
	}
	// The ideal baseline ignores prefetch, so it is identical with and
	// without it, keeping overheads comparable.
	if fetched.Ideal.Makespan != plain.Ideal.Makespan {
		t.Errorf("ideal baselines diverged: %v vs %v",
			fetched.Ideal.Makespan, plain.Ideal.Makespan)
	}
}

// TestIdealIgnoresPrefetch: templates that share task IDs let a
// cross-graph preload pin a configuration the next application reuses,
// which at zero latency can delay a load the plain schedule makes at
// once. The baseline is the plain schedule either way, so a run reports
// the same ideal, and the same overhead, with and without prefetch.
func TestIdealIgnoresPrefetch(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]*taskgraph.Graph, 5)
		for i := range pool {
			g, err := taskgraph.RandomLayered(fmt.Sprintf("g%d", i), taskgraph.RandomConfig{
				Tasks: 2 + rng.Intn(5), MaxWidth: 1 + rng.Intn(3), EdgeProb: 0.4,
				MinExec: ms(1), MaxExec: ms(12), FirstTaskID: 1,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			pool[i] = g
		}
		seq := make([]*taskgraph.Graph, 120)
		for i := range seq {
			seq[i] = pool[rng.Intn(len(pool))]
		}
		for rus := 1; rus <= 6; rus++ {
			base := Config{RUs: rus, Latency: ms(4), Policy: "lru"}
			plain, err := Evaluate(base, seq...)
			if err != nil {
				t.Fatal(err)
			}
			pf := base
			pf.CrossGraphPrefetch = true
			fetched, err := Evaluate(pf, seq...)
			if err != nil {
				t.Fatal(err)
			}
			if fetched.Ideal.Makespan != plain.Ideal.Makespan ||
				!slices.Equal(fetched.Ideal.Completions, plain.Ideal.Completions) {
				t.Errorf("seed %d R=%d: ideal %v with prefetch, %v without",
					seed, rus, fetched.Ideal.Makespan, plain.Ideal.Makespan)
			}
		}
	}
}
