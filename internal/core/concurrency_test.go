package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TestConcurrentRunsShareOneSystem drives one skip-events System from
// several goroutines; under -race this exercises the prepared-table view,
// the shared mobility cache and the concurrent ideal baseline.
func TestConcurrentRunsShareOneSystem(t *testing.T) {
	sys, err := NewSystem(Config{
		RUs:        4,
		Latency:    workload.PaperLatency(),
		Policy:     "locallfd:1",
		SkipEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := workload.Fig3Sequence()
	const runs = 8
	results := make([]*Result, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sys.Run(seq...)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < runs; i++ {
		if results[i] == nil || results[0] == nil {
			t.Fatal("missing result")
		}
		if !reflect.DeepEqual(results[i].Summary, results[0].Summary) {
			t.Errorf("run %d diverged: %+v vs %+v", i, results[i].Summary, results[0].Summary)
		}
	}
}

// TestRandomPolicyForkedPerRun checks the stateful Random policy never
// crosses goroutines: every simulation — the real/ideal pair inside one
// Run, and overlapping Runs on one System — gets a fork replaying the
// seed's decision stream, so concurrent results are also reproducible.
func TestRandomPolicyForkedPerRun(t *testing.T) {
	sys, err := NewSystem(Config{
		RUs:     4,
		Latency: workload.PaperLatency(),
		Policy:  "random:7",
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := workload.Fig2Sequence()
	const runs = 6
	results := make([]*Result, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sys.Run(seq...)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatal("missing result")
		}
		if res.Run.Makespan.Before(res.Ideal.Makespan) {
			t.Errorf("run %d: real makespan %v beats ideal %v", i, res.Run.Makespan, res.Ideal.Makespan)
		}
		if !reflect.DeepEqual(res.Summary, results[0].Summary) {
			t.Errorf("run %d diverged from run 0 despite the per-run fork", i)
		}
	}
}

// TestConcurrentRunArrivalsShareOneSlice: overlapping RunArrivals calls
// on one System share one arrival slice, which they only read. Under
// -race a write to it anywhere on the run path is a data race; without
// it, the slice still equals its copy taken before the runs, and every
// run reports what a run on a slice of its own does.
func TestConcurrentRunArrivalsShareOneSlice(t *testing.T) {
	sys, err := NewSystem(Config{
		RUs:        4,
		Latency:    workload.PaperLatency(),
		Policy:     "lfd",
		SkipEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []dynlist.Item {
		arrivals, err := dynlist.RandomArrivals([]*taskgraph.Graph{workload.JPEG(), workload.MPEG1()}, 40,
			ms(20), rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return arrivals
	}
	want, err := sys.RunArrivals(mk())
	if err != nil {
		t.Fatal(err)
	}
	shared := mk()
	before := slices.Clone(shared)
	const runs = 6
	results := make([]*Result, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sys.RunArrivals(shared)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if !slices.Equal(shared, before) {
		t.Error("RunArrivals wrote to its arrivals")
	}
	for i, res := range results {
		if res == nil || !reflect.DeepEqual(res.Run, want.Run) || !reflect.DeepEqual(res.Summary, want.Summary) {
			t.Errorf("run %d on the shared slice differs from a run on its own slice", i)
		}
	}
}
