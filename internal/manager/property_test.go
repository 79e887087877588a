package manager

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// randomWorkload builds a pool of random templates (with disjoint ID
// ranges) and a random sequence over it.
func randomWorkload(t *testing.T, rng *rand.Rand, pools, apps int) []*taskgraph.Graph {
	t.Helper()
	pool := make([]*taskgraph.Graph, pools)
	for i := range pool {
		g, err := taskgraph.RandomLayered(fmt.Sprintf("rand%d", i), taskgraph.RandomConfig{
			Tasks:       1 + rng.Intn(7),
			MaxWidth:    1 + rng.Intn(3),
			EdgeProb:    0.4,
			MinExec:     simtime.FromMs(1),
			MaxExec:     simtime.FromMs(12),
			LongEdges:   rng.Intn(2) == 0,
			FirstTaskID: taskgraph.TaskID(1 + i*100),
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

// TestRandomWorkloadsSatisfyInvariants fuzzes the manager across random
// workloads, unit counts and policies, validating the full trace each
// time: single reconfiguration port, no unit overlap, residency, graph
// sequencing and dependency order.
func TestRandomWorkloadsSatisfyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20110516))
	policies := []func() policy.Policy{
		policy.NewLRU,
		policy.NewFIFO,
		policy.NewMRU,
		func() policy.Policy { return policy.NewRandom(7) },
		policy.NewLFD,
		func() policy.Policy { p, _ := policy.NewLocalLFD(1 + rng.Intn(4)); return p },
	}
	for trial := 0; trial < 120; trial++ {
		seq := randomWorkload(t, rng, 1+rng.Intn(4), 1+rng.Intn(12))
		rus := 1 + rng.Intn(6)
		latency := simtime.Time(rng.Int63n(int64(simtime.FromMs(6))))
		pol := policies[trial%len(policies)]()
		res, err := Run(Config{
			RUs: rus, Latency: latency, Policy: pol, RecordTrace: true,
		}, dynlist.NewSequence(seq...))
		if err != nil {
			t.Fatalf("trial %d (R=%d, latency %v, %s): %v", trial, rus, latency, pol.Name(), err)
		}
		wantExecs := 0
		for _, g := range seq {
			wantExecs += g.NumTasks()
		}
		if res.Executed != wantExecs {
			t.Fatalf("trial %d: executed %d of %d tasks", trial, res.Executed, wantExecs)
		}
		if res.Graphs != len(seq) {
			t.Fatalf("trial %d: completed %d of %d graphs", trial, res.Graphs, len(seq))
		}
		if err := res.Trace.Validate(res.Templates); err != nil {
			t.Fatalf("trial %d (R=%d, latency %v, %s): trace invalid: %v",
				trial, rus, latency, pol.Name(), err)
		}
		if res.Reused+res.Loads != res.Executed {
			t.Fatalf("trial %d: reuses %d + loads %d != executed %d",
				trial, res.Reused, res.Loads, res.Executed)
		}
	}
}

// TestSkipEventsNeverLosesWork: with random mobilities (even nonsensical
// ones), every task still executes and the trace stays valid — the skip
// mechanism may only postpone, never break.
func TestSkipEventsNeverLosesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		seq := randomWorkload(t, rng, 1+rng.Intn(3), 1+rng.Intn(8))
		rus := 2 + rng.Intn(4)
		mob := func(g *taskgraph.Graph) []int {
			vals := make([]int, g.NumTasks())
			for i := range vals {
				vals[i] = rng.Intn(4)
			}
			return vals
		}
		pol, err := policy.NewLocalLFD(1 + rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			RUs: rus, Latency: simtime.FromMs(4), Policy: pol,
			SkipEvents: true, Mobility: mob, RecordTrace: true,
		}, dynlist.NewSequence(seq...))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Trace.Validate(res.Templates); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Graphs != len(seq) {
			t.Fatalf("trial %d: %d of %d graphs completed", trial, res.Graphs, len(seq))
		}
	}
}

// TestReuseNeverExceedsResidencyOpportunity: the first instance of each
// template can never reuse anything; on a single-unit system only
// immediately repeated single-task graphs can reuse.
func TestReuseNeverExceedsResidencyOpportunity(t *testing.T) {
	g := taskgraph.Chain("c", 1, simtime.FromMs(2), simtime.FromMs(2))
	res, err := Run(Config{RUs: 1, Latency: simtime.FromMs(4), Policy: policy.NewLRU()},
		dynlist.NewSequence(g, g))
	if err != nil {
		t.Fatal(err)
	}
	// On one unit, a two-task chain leaves task 2 resident; the second
	// instance must reload task 1 and task 2 alike except task... task 2
	// is resident but task 1 must evict it before it can run. Replaying:
	// reuse only possible for the head if resident. Never for this shape.
	if res.Reused > 1 {
		t.Errorf("implausible reuse count %d on single unit", res.Reused)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkConservation: the manager never idles the reconfiguration
// circuitry when a load could proceed — verified indirectly: the makespan
// with ample units equals first-load latency plus the critical path when
// no reuse is possible and loads fit in execution shadows.
func TestWorkConservation(t *testing.T) {
	g := workload.JPEG() // chain 17/14/31/17, critical path 79
	res, err := Run(Config{RUs: 4, Latency: simtime.FromMs(4), Policy: policy.NewLRU()},
		dynlist.NewSequence(g))
	if err != nil {
		t.Fatal(err)
	}
	// load 11 [0,4]; every later load hides under execution: makespan =
	// 4 + 79 = 83 ms.
	if want := simtime.FromMs(83); res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

// TestArrivalDuringExecution: a graph arriving mid-execution of another
// waits its turn (strictly sequential applications).
func TestArrivalDuringExecution(t *testing.T) {
	a := taskgraph.Chain("a", 1, simtime.FromMs(20))
	b := taskgraph.Chain("b", 11, simtime.FromMs(5))
	arrivals, err := dynlist.NewTimed([]dynlist.Item{
		{Graph: a, Arrival: 0},
		{Graph: b, Arrival: simtime.FromMs(10)}, // a still executing
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{RUs: 2, Latency: simtime.FromMs(4), Policy: policy.NewLRU(), RecordTrace: true}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	// a: load [0,4], exec [4,24]. b arrives at 10 but must wait; its load
	// may also not start before a completes: load [24,28], exec [28,33].
	if want := simtime.FromMs(33); res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	for _, l := range res.Trace.Loads {
		if l.Task == 11 && l.Start.Before(simtime.FromMs(24)) {
			t.Errorf("graph b's load started at %v, before graph a finished", l.Start)
		}
	}
}

// TestLatencyMonotonicity: increasing the reconfiguration latency never
// shortens the makespan.
func TestLatencyMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seq := randomWorkload(t, rng, 3, 8)
	var prev simtime.Time
	for _, lat := range []simtime.Time{0, simtime.FromMs(1), simtime.FromMs(4), simtime.FromMs(16)} {
		res, err := Run(Config{RUs: 3, Latency: lat, Policy: policy.NewLRU()},
			dynlist.NewSequence(seq...))
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan.Before(prev) {
			t.Errorf("latency %v: makespan %v shorter than with smaller latency (%v)",
				lat, res.Makespan, prev)
		}
		prev = res.Makespan
	}
}
