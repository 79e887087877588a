package manager

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TestIdealTimingIndependentOfPolicy: at zero reconfiguration latency a
// load costs nothing, so the replacement policy decides which tasks are
// reused but never when anything runs — Makespan and every completion
// time agree across policies. This is why one LRU baseline per
// (workload, RUs) normalizes every policy's run, and why Runner.Ideal may
// time each template under LRU. Reuse counters do differ, which keeps the
// check honest.
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
		seq, err := dynlist.RandomSequence(workload.Multimedia(), 150, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
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

// sharedIDWorkload draws apps applications from pools random templates
// whose task IDs all start at 1, so distinct templates share
// configurations and an application can reuse a task another template
// left resident.
func sharedIDWorkload(t *testing.T, rng *rand.Rand, pools, apps int) []*taskgraph.Graph {
	t.Helper()
	pool := make([]*taskgraph.Graph, pools)
	for i := range pool {
		g, err := taskgraph.RandomLayered(fmt.Sprintf("shared%d", i), taskgraph.RandomConfig{
			Tasks: 1 + rng.Intn(7), MaxWidth: 1 + rng.Intn(3), EdgeProb: 0.4,
			MinExec: ms(1), MaxExec: ms(12), LongEdges: rng.Intn(2) == 0,
			FirstTaskID: 1,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = g
	}
	seq := make([]*taskgraph.Graph, apps)
	for i := range seq {
		seq[i] = pool[rng.Intn(len(pool))]
	}
	return seq
}

// timedItems gives seq arrival times with gaps drawn from 0 to 3 ms, so
// applications arrive together (ties), back to back or after the array
// went idle.
func timedItems(seq []*taskgraph.Graph, rng *rand.Rand) []dynlist.Item {
	items := make([]dynlist.Item, len(seq))
	var at simtime.Time
	for i, g := range seq {
		at += ms(float64(rng.Intn(4)))
		items[i] = dynlist.Item{Graph: g, Arrival: at, Instance: i}
	}
	return items
}

// sameIdeal fails unless ideal agrees with the simulated zero-latency run
// in every field a baseline carries.
func sameIdeal(t *testing.T, where string, ideal, run *Result) {
	t.Helper()
	if ideal.Makespan != run.Makespan || ideal.Executed != run.Executed || ideal.Graphs != run.Graphs ||
		!slices.Equal(ideal.Completions, run.Completions) {
		t.Fatalf("%s: Ideal gives makespan %v, %d executed, %d graphs, completions %v; Run gives %v, %d, %d, %v",
			where, ideal.Makespan, ideal.Executed, ideal.Graphs, ideal.Completions,
			run.Makespan, run.Executed, run.Graphs, run.Completions)
	}
}

// TestIdealMatchesRun pins Runner.Ideal's recurrence against a simulation
// of the whole sequence at zero latency: every policy, 1 to 12 units, the
// Multimedia pool and random pools whose templates share task IDs, with
// every application arriving at 0 or at timed arrivals with gaps and ties.
// One Runner serves both sides, so each also runs on state the other left.
func TestIdealMatchesRun(t *testing.T) {
	policies := []func() policy.Policy{
		policy.NewLRU, policy.NewFIFO, policy.NewMRU, policy.NewLFD,
		func() policy.Policy { return mustLocalLFD(t, 2) },
		func() policy.Policy { return policy.NewRandom(3) },
	}
	rng := rand.New(rand.NewSource(2011))
	var workloads [][]*taskgraph.Graph
	for i := 0; i < 2; i++ {
		seq, err := dynlist.RandomSequence(workload.Multimedia(), 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, seq)
	}
	for i := 0; i < 3; i++ {
		workloads = append(workloads, sharedIDWorkload(t, rng, 2+rng.Intn(4), 40))
	}

	r := NewRunner()
	for wi, seq := range workloads {
		arrivals := map[string][]dynlist.Item{
			"at 0":  dynlist.NewSequence(seq...),
			"timed": timedItems(seq, rng),
		}
		for mode, items := range arrivals {
			items, err := dynlist.NewTimed(items)
			if err != nil {
				t.Fatal(err)
			}
			for rus := 1; rus <= 12; rus++ {
				ideal, err := r.Ideal(rus, items)
				if err != nil {
					t.Fatal(err)
				}
				for _, mk := range policies {
					p := mk()
					run, err := r.Run(Config{RUs: rus, Policy: p}, items)
					if err != nil {
						t.Fatal(err)
					}
					sameIdeal(t, fmt.Sprintf("workload %d arrivals %s R=%d %s", wi, mode, rus, p.Name()), ideal, run)
				}
			}
		}
	}
}
