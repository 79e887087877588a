package manager

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// Bits of FuzzRunnerInvariants' flags argument.
const (
	fuzzSkip = 1 << iota
	fuzzPrefetch
	fuzzConservative
	fuzzLatencyFor
	fuzzDelayPlan
	fuzzZeroLatency
	fuzzTimed
)

// fuzzScenario builds a small run from seed and flags: up to three random
// templates whose tasks share one execution time, latencies and arrivals
// on a 1 ms grid so that events tie often, and every Config flag flags
// selects.
func fuzzScenario(t *testing.T, seed int64, flags uint8) (Config, []dynlist.Item) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*taskgraph.Graph, 1+rng.Intn(3))
	for i := range pool {
		exec := ms(float64(1 + rng.Intn(3)))
		g, err := taskgraph.RandomLayered(fmt.Sprintf("fz%d", i), taskgraph.RandomConfig{
			Tasks: 1 + rng.Intn(5), MaxWidth: 1 + rng.Intn(3), EdgeProb: 0.5,
			MinExec: exec, MaxExec: exec, LongEdges: rng.Intn(2) == 0,
			FirstTaskID: taskgraph.TaskID(1 + 10*i),
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = g
	}
	items := make([]dynlist.Item, 1+rng.Intn(10))
	var at simtime.Time
	for i := range items {
		if flags&fuzzTimed != 0 {
			at += ms(float64(rng.Intn(4)))
		}
		items[i] = dynlist.Item{Graph: pool[rng.Intn(len(pool))], Arrival: at, Instance: i}
	}

	pols := []func() policy.Policy{
		policy.NewLRU, policy.NewFIFO, policy.NewMRU, policy.NewLFD,
		func() policy.Policy { return policy.NewRandom(seed) },
		func() policy.Policy { p, _ := policy.NewLocalLFD(1 + rng.Intn(3)); return p },
	}
	cfg := Config{
		RUs:                  1 + rng.Intn(4),
		Latency:              ms(float64(1 + rng.Intn(4))),
		Policy:               pols[rng.Intn(len(pols))](),
		SkipEvents:           flags&fuzzSkip != 0,
		CrossGraphPrefetch:   flags&fuzzPrefetch != 0,
		ConservativePrefetch: flags&fuzzConservative != 0,
		RecordTrace:          true,
	}
	if flags&fuzzZeroLatency != 0 {
		cfg.Latency = 0
	}
	if cfg.SkipEvents {
		mob := make(map[*taskgraph.Graph][]int)
		for _, g := range pool {
			vals := make([]int, g.NumTasks())
			for i := range vals {
				vals[i] = rng.Intn(3)
			}
			mob[g] = vals
		}
		cfg.Mobility = func(g *taskgraph.Graph) []int { return mob[g] }
	}
	if flags&fuzzLatencyFor != 0 {
		cfg.LatencyFor = func(id taskgraph.TaskID) simtime.Time { return ms(float64(id % 3)) }
	}
	if flags&fuzzDelayPlan != 0 {
		cfg.DelayPlan = map[int]int{rng.Intn(5): 1 + rng.Intn(2)}
	}
	return cfg, items
}

// FuzzRunnerInvariants steps random small runs event by event and checks
// the hot loop's invariants:
//   - each event handled is the least pending one by (time, kind), and
//     time never goes back;
//   - the running executions stay ordered by end, and executions ending
//     at one instant end in start order;
//   - the run completes every application, its trace validates, and
//     Events counts the events handled;
//   - re-running on the same, now used, Runner gives a byte-identical
//     result.
func FuzzRunnerInvariants(f *testing.F) {
	for flags := 0; flags < 1<<7; flags += 9 {
		f.Add(int64(flags), uint8(flags))
	}
	f.Fuzz(func(t *testing.T, seed int64, flags uint8) {
		cfg, items := fuzzScenario(t, seed, flags)
		feed := func() dynlist.Feed {
			f, err := dynlist.NewTimed(items)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		r := NewRunner()
		if err := r.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := r.start(feed()); err != nil {
			t.Fatal(err)
		}
		type execKey struct{ instance, local int }
		startedAt := make(map[execKey]int) // step at which an execution started
		var last simtime.Time
		steps := 0
		for {
			kind, at, ok := r.next()
			if ok {
				checkLeast(t, r, kind, at)
				if at < last {
					t.Fatalf("event at %v after one at %v", at, last)
				}
				last = at
				if kind == endOfExecution {
					head := r.running[0]
					for _, e := range r.running[1:] {
						if e.end == head.end && startedAt[execKey{r.cur.item.Instance, e.local}] <
							startedAt[execKey{r.cur.item.Instance, head.local}] {
							t.Fatalf("at %v: task %d ends before task %d, which started earlier",
								at, head.local, e.local)
						}
					}
				}
			}
			more, err := r.step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			steps++
			for i, e := range r.running {
				if i > 0 && e.end < r.running[i-1].end {
					t.Fatalf("running executions out of end order at %v", r.now)
				}
				k := execKey{r.cur.item.Instance, e.local}
				if _, seen := startedAt[k]; !seen {
					startedAt[k] = steps
				}
			}
		}
		first := r.snapshot()
		if first.Graphs != len(items) {
			t.Fatalf("completed %d of %d applications", first.Graphs, len(items))
		}
		if first.Events != uint64(steps) {
			t.Fatalf("Events = %d, handled %d", first.Events, steps)
		}
		if err := first.Trace.Validate(first.Templates); err != nil {
			t.Fatalf("trace invalid: %v", err)
		}
		again, err := r.Run(cfg, feed())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) || runDigest(first) != runDigest(again) {
			t.Fatalf("re-run on the used Runner diverged")
		}
	})
}

// checkLeast fails unless (kind, at) is the least pending event by
// (time, kind), found by scanning every pending event.
func checkLeast(t *testing.T, r *Runner, kind eventKind, at simtime.Time) {
	t.Helper()
	less := func(k eventKind, a simtime.Time) bool { return a < at || (a == at && k < kind) }
	for _, e := range r.running {
		if less(endOfExecution, e.end) {
			t.Fatalf("next event is %s at %v, but an execution ends at %v", kind, at, e.end)
		}
	}
	if end, active := r.recon.End(); active && less(endOfReconfiguration, end) {
		t.Fatalf("next event is %s at %v, but a load ends at %v", kind, at, end)
	}
	if r.arrived < len(r.arrivals) && less(newTaskGraph, r.arrivals[r.arrived].Arrival) {
		t.Fatalf("next event is %s at %v, but an application arrives at %v", kind, at, r.arrivals[r.arrived].Arrival)
	}
}
