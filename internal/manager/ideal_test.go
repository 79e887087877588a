package manager

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TestIdealTimingIndependentOfPolicy: at zero reconfiguration latency a
// load costs nothing, so the replacement policy decides which tasks are
// reused but never when anything runs — Makespan and every completion
// time agree across policies. This is why the sweep computes one LRU
// ideal baseline per (workload, RUs) and normalizes every policy's run
// against it. Reuse counters do differ, which keeps the check honest.
func TestIdealTimingIndependentOfPolicy(t *testing.T) {
	policies := []func() policy.Policy{
		policy.NewLFD,
		func() policy.Policy { return mustLocalLFD(t, 1) },
		func() policy.Policy { return mustLocalLFD(t, 4) },
		policy.NewMRU,
		policy.NewFIFO,
		func() policy.Policy { return policy.NewRandom(11) },
	}
	var workloads [][]*taskgraph.Graph
	for seed := int64(1); seed <= 4; seed++ {
		feed, err := dynlist.RandomSequence(workload.Multimedia(), 150, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var seq []*taskgraph.Graph
		for _, it := range feed.Remaining() {
			seq = append(seq, it.Graph)
		}
		workloads = append(workloads, seq)
	}
	for seed := int64(5); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workloads = append(workloads, randomWorkload(t, rng, 4, 80))
	}

	r := NewRunner()
	reuseDiffers := false
	for wi, seq := range workloads {
		for rus := 1; rus <= 10; rus++ {
			run := func(p policy.Policy) *Result {
				t.Helper()
				res, err := r.Run(Config{RUs: rus, Latency: 0, Policy: p}, dynlist.NewSequence(seq...))
				if err != nil {
					t.Fatalf("workload %d R=%d %s: %v", wi, rus, p.Name(), err)
				}
				return res
			}
			lru := run(policy.NewLRU())
			for _, mk := range policies {
				p := mk()
				got := run(p)
				where := fmt.Sprintf("workload %d R=%d %s", wi, rus, p.Name())
				if got.Makespan != lru.Makespan {
					t.Errorf("%s: makespan %v, LRU's %v", where, got.Makespan, lru.Makespan)
				}
				if !slices.Equal(got.Completions, lru.Completions) {
					t.Errorf("%s: completions differ from LRU's", where)
				}
				if got.Reused != lru.Reused {
					reuseDiffers = true
				}
			}
		}
	}
	if !reuseDiffers {
		t.Error("every policy reused exactly as LRU did: the workloads do not exercise replacement")
	}
}
