package manager

import (
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TestCrossGraphPrefetchHidesBoundaryLoad: with the extension enabled the
// next graph's first load overlaps the running graph's tail execution.
//
// A = chain a1(2)→a2(2), B = chain b1(2)→b2(2), 4 units, 4 ms latency.
// Baseline: B's loads start at A's completion (t=10) ⇒ makespan 20 ms.
// With prefetch: b1 loads during a2's execution ⇒ makespan 18 ms.
func TestCrossGraphPrefetchHidesBoundaryLoad(t *testing.T) {
	a := taskgraph.Chain("a", 1, ms(2), ms(2))
	b := taskgraph.Chain("b", 11, ms(2), ms(2))
	base := Config{RUs: 4, Latency: ms(4), Policy: policy.NewLRU(), RecordTrace: true}

	plain := runValidated(t, base, a, b)
	if want := ms(20); plain.Makespan != want {
		t.Fatalf("baseline makespan = %v, want %v", plain.Makespan, want)
	}

	pf := base
	pf.CrossGraphPrefetch = true
	fetched := runValidated(t, pf, a, b)
	if want := ms(18); fetched.Makespan != want {
		t.Errorf("prefetch makespan = %v, want %v", fetched.Makespan, want)
	}
	if fetched.Preloads != 1 {
		t.Errorf("preloads = %d, want 1 (b1 only; b2 loads after B starts)", fetched.Preloads)
	}
}

// TestCrossGraphPrefetchPinsResidents: with a repeated template the
// preloader pins resident configurations instead of loading, and the
// second instance reuses everything.
func TestCrossGraphPrefetchPinsResidents(t *testing.T) {
	g := workload.Fig2TG1()
	cfg := Config{RUs: 4, Latency: ms(4), Policy: policy.NewLRU(),
		CrossGraphPrefetch: true, RecordTrace: true}
	res := runValidated(t, cfg, g, g)
	if res.Preloads != 0 {
		t.Errorf("preloads = %d, want 0 (everything resident)", res.Preloads)
	}
	if res.Reused != 3 {
		t.Errorf("reused = %d, want 3", res.Reused)
	}
}

// TestCrossGraphPrefetchProtectsAgainstEviction: the pinned
// configurations of the upcoming graph must survive preloading of its
// missing ones even under unit pressure.
func TestCrossGraphPrefetchUnderPressure(t *testing.T) {
	// Three distinct 2-task chains on 2 units: every boundary must evict,
	// and the run must stay deadlock-free and valid.
	a := taskgraph.Chain("a", 1, ms(3), ms(3))
	b := taskgraph.Chain("b", 11, ms(3), ms(3))
	c := taskgraph.Chain("c", 21, ms(3), ms(3))
	cfg := Config{RUs: 2, Latency: ms(4), Policy: policy.NewLRU(),
		CrossGraphPrefetch: true, RecordTrace: true}
	res := runValidated(t, cfg, a, b, c, a)
	if res.Executed != 8 || res.Graphs != 4 {
		t.Fatalf("executed %d tasks in %d graphs", res.Executed, res.Graphs)
	}
}

// TestCrossGraphPrefetchNeverSlower: over the multimedia workload the
// extension must not lengthen the schedule (it only adds hiding
// opportunities) and should strictly help at moderate unit counts.
func TestCrossGraphPrefetchNeverSlower(t *testing.T) {
	seq := []*taskgraph.Graph{}
	pool := workload.Multimedia()
	for i := 0; i < 30; i++ {
		seq = append(seq, pool[i%3])
	}
	helped := false
	for _, rus := range []int{4, 6, 8} {
		base := Config{RUs: rus, Latency: ms(4), Policy: policy.NewLRU()}
		plain, err := Run(base, dynlist.NewSequence(seq...))
		if err != nil {
			t.Fatal(err)
		}
		pf := base
		pf.CrossGraphPrefetch = true
		fetched, err := Run(pf, dynlist.NewSequence(seq...))
		if err != nil {
			t.Fatal(err)
		}
		if fetched.Makespan.After(plain.Makespan) {
			t.Errorf("R=%d: prefetch lengthened makespan %v → %v",
				rus, plain.Makespan, fetched.Makespan)
		}
		if fetched.Makespan.Before(plain.Makespan) {
			helped = true
		}
	}
	if !helped {
		t.Error("prefetch never improved the makespan at any unit count")
	}
}

// TestCrossGraphPrefetchWithSkipEvents: the two mechanisms compose.
func TestCrossGraphPrefetchWithSkipEvents(t *testing.T) {
	cfg := Config{
		RUs: 4, Latency: ms(4), Policy: mustLocalLFD(t, 1),
		SkipEvents: true, Mobility: fig3Mobility,
		CrossGraphPrefetch: true, RecordTrace: true,
	}
	res := runValidated(t, cfg, workload.Fig3Sequence()...)
	// Prefetch may only improve on the 70 ms skip-events schedule.
	if res.Makespan.After(simtime.FromMs(70)) {
		t.Errorf("makespan = %v, want ≤ 70 ms", res.Makespan)
	}
	if res.Graphs != 3 {
		t.Errorf("graphs = %d, want 3", res.Graphs)
	}
}

// TestCrossGraphPrefetchLateArrivals: preloading must cope with an empty
// Dynamic List and with arrivals landing mid-execution.
func TestCrossGraphPrefetchLateArrivals(t *testing.T) {
	a := taskgraph.Chain("a", 1, ms(30))
	b := taskgraph.Chain("b", 11, ms(5))
	arrivals, err := dynlist.NewTimed([]dynlist.Item{
		{Graph: a, Arrival: 0},
		{Graph: b, Arrival: ms(10)}, // arrives while a executes; DL was empty before
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{RUs: 2, Latency: ms(4), Policy: policy.NewLRU(),
		CrossGraphPrefetch: true, RecordTrace: true}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Validate(res.Templates); err != nil {
		t.Fatal(err)
	}
	// a: load [0,4] exec [4,34]. b arrives at 10, preloads [10,14], and
	// executes right at a's completion: [34,39].
	if want := ms(39); res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Preloads != 1 {
		t.Errorf("preloads = %d, want 1", res.Preloads)
	}
}

// TestConservativePrefetchPreservesReuse: the conservative prefetcher
// only displaces configurations the lookahead does not expect back, so
// with a window covering the workload's recurrence it keeps plain Local
// LFD's reuse while still using dead configurations (here: a one-shot
// graph's) to hide boundary loads. Greedy prefetch on the same workload
// sacrifices reuse.
func TestConservativePrefetchPreservesReuse(t *testing.T) {
	a := taskgraph.Chain("a", 1, ms(6), ms(6))
	b := taskgraph.Chain("b", 11, ms(6), ms(6))
	once := taskgraph.Chain("once", 21, ms(6), ms(6)) // never recurs: dead after its run
	seq := []*taskgraph.Graph{a, b, once, a, b, a, b, a, b}

	mk := func(prefetch, conservative bool) *Result {
		cfg := Config{
			RUs: 5, Latency: ms(4), Policy: mustLocalLFD(t, 4),
			CrossGraphPrefetch: prefetch, ConservativePrefetch: conservative,
			RecordTrace: true,
		}
		return runValidated(t, cfg, seq...)
	}
	plain := mk(false, false)
	greedy := mk(true, false)
	conserv := mk(true, true)

	if conserv.Reused < plain.Reused {
		t.Errorf("conservative prefetch lost reuse: %d < %d", conserv.Reused, plain.Reused)
	}
	if conserv.Makespan.After(plain.Makespan) {
		t.Errorf("conservative prefetch slowed the run: %v > %v", conserv.Makespan, plain.Makespan)
	}
	if conserv.Preloads == 0 {
		t.Error("conservative prefetch never preloaded anything (the one-shot graph's units were free)")
	}
	if greedy.Reused > conserv.Reused {
		t.Errorf("greedy should not out-reuse conservative: %d > %d", greedy.Reused, conserv.Reused)
	}
}
