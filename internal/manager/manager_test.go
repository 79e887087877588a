package manager

import (
	"strings"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

func mustLocalLFD(t *testing.T, w int) policy.Policy {
	t.Helper()
	p, err := policy.NewLocalLFD(w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, cfg Config, graphs ...*taskgraph.Graph) *Result {
	t.Helper()
	res, err := Run(cfg, dynlist.NewSequence(graphs...))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// graphsOf returns the templates of arrivals in instance order, the
// graphs Trace.Validate checks dependencies against.
func graphsOf(arrivals []dynlist.Item) []*taskgraph.Graph {
	graphs := make([]*taskgraph.Graph, len(arrivals))
	for i, it := range arrivals {
		graphs[i] = it.Graph
	}
	return graphs
}

// runValidated runs with tracing and checks every architecture invariant.
func runValidated(t *testing.T, cfg Config, graphs ...*taskgraph.Graph) *Result {
	t.Helper()
	cfg.RecordTrace = true
	res := run(t, cfg, graphs...)
	if err := res.Trace.Validate(graphs); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	return res
}

func fig2Config(p policy.Policy) Config {
	return Config{RUs: 4, Latency: ms(4), Policy: p}
}

// --- Golden tests: Fig. 2 -------------------------------------------------

// TestFig2LRU reproduces Fig. 2a: reuse 2/12 (16.7 %), overhead 22 ms.
func TestFig2LRU(t *testing.T) {
	res := runValidated(t, fig2Config(policy.NewLRU()), workload.Fig2Sequence()...)
	if res.Executed != 12 {
		t.Fatalf("executed %d tasks, want 12", res.Executed)
	}
	if res.Reused != 2 {
		t.Errorf("reused = %d, want 2 (16.7%%)", res.Reused)
	}
	if want := ms(64); res.Makespan != want {
		t.Errorf("makespan = %v, want %v (ideal 42 ms + 22 ms overhead)", res.Makespan, want)
	}
}

// TestFig2LFD reproduces Fig. 2b: reuse 5/12 (41.7 %), overhead 11 ms.
func TestFig2LFD(t *testing.T) {
	res := runValidated(t, fig2Config(policy.NewLFD()), workload.Fig2Sequence()...)
	if res.Reused != 5 {
		t.Errorf("reused = %d, want 5 (41.7%%)", res.Reused)
	}
	if want := ms(53); res.Makespan != want {
		t.Errorf("makespan = %v, want %v (ideal 42 ms + 11 ms overhead)", res.Makespan, want)
	}
}

// TestFig2LocalLFD reproduces Fig. 2c: reuse 5/12 (41.7 %), overhead 15 ms.
func TestFig2LocalLFD(t *testing.T) {
	res := runValidated(t, fig2Config(mustLocalLFD(t, 1)), workload.Fig2Sequence()...)
	if res.Reused != 5 {
		t.Errorf("reused = %d, want 5 (41.7%%)", res.Reused)
	}
	if want := ms(57); res.Makespan != want {
		t.Errorf("makespan = %v, want %v (ideal 42 ms + 15 ms overhead)", res.Makespan, want)
	}
}

// TestFig2Ideal checks the zero-latency baseline: 42 ms (sum of critical
// paths: 9+8+8+9+8).
func TestFig2Ideal(t *testing.T) {
	res := runValidated(t, Config{RUs: 4, Latency: 0, Policy: policy.NewLRU()},
		workload.Fig2Sequence()...)
	if want := ms(42); res.Makespan != want {
		t.Errorf("ideal makespan = %v, want %v", res.Makespan, want)
	}
	if res.Reused != 5 {
		// With free loads LRU still reuses what is resident; the count is
		// incidental but pinned for determinism.
		t.Logf("note: ideal-run reuse = %d", res.Reused)
	}
}

// --- Golden tests: Fig. 3 -------------------------------------------------

// fig3Mobility returns the paper's mobility values for the Fig. 3 graphs:
// all zero except task 7 (mobility 1), per Fig. 7.
func fig3Mobility(g *taskgraph.Graph) []int {
	if g.Name() == "fig3-tg2" {
		return []int{0, 0, 0, 1}
	}
	return nil
}

// TestFig3ASAP reproduces Fig. 3a: pure ASAP, makespan 74 ms, overhead
// 12 ms, reuse 0 %.
func TestFig3ASAP(t *testing.T) {
	res := runValidated(t, Config{RUs: 4, Latency: ms(4), Policy: mustLocalLFD(t, 1)},
		workload.Fig3Sequence()...)
	if res.Executed != 10 {
		t.Fatalf("executed %d, want 10", res.Executed)
	}
	if res.Reused != 0 {
		t.Errorf("reused = %d, want 0", res.Reused)
	}
	if want := ms(74); res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

// TestFig3SkipEvents reproduces Fig. 3b: delaying task 7 by one event
// saves task 1 for reuse — makespan 70 ms, overhead 8 ms, reuse 10 %.
func TestFig3SkipEvents(t *testing.T) {
	res := runValidated(t, Config{
		RUs: 4, Latency: ms(4), Policy: mustLocalLFD(t, 1),
		SkipEvents: true, Mobility: fig3Mobility,
	}, workload.Fig3Sequence()...)
	if res.Reused != 1 {
		t.Errorf("reused = %d, want 1 (10%%)", res.Reused)
	}
	if want := ms(70); res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Skips != 1 {
		t.Errorf("skips = %d, want 1", res.Skips)
	}
}

// TestFig3Ideal checks the 62 ms zero-latency baseline (18+26+18).
func TestFig3Ideal(t *testing.T) {
	res := runValidated(t, Config{RUs: 4, Latency: 0, Policy: mustLocalLFD(t, 1)},
		workload.Fig3Sequence()...)
	if want := ms(62); res.Makespan != want {
		t.Errorf("ideal makespan = %v, want %v", res.Makespan, want)
	}
}

// --- Golden tests: Fig. 7 (forced delays) ---------------------------------

// TestFig7ForcedDelays reproduces every sub-figure of the mobility worked
// example: Fig. 3's Task Graph 2 alone on 4 units.
func TestFig7ForcedDelays(t *testing.T) {
	cases := []struct {
		name     string
		plan     map[int]int // local index → forced skips
		makespan simtime.Time
		skips    int
	}{
		{"reference", nil, ms(30), 0},
		{"delay task5 once", map[int]int{1: 1}, ms(36), 1},
		{"delay task6 once", map[int]int{2: 1}, ms(32), 1},
		{"delay task7 once", map[int]int{3: 1}, ms(30), 1},
		{"delay task7 twice", map[int]int{3: 2}, ms(32), 2},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			res := runValidated(t, Config{
				RUs: 4, Latency: ms(4), Policy: policy.NewLRU(), DelayPlan: tt.plan,
			}, workload.Fig3TG2())
			if res.Makespan != tt.makespan {
				t.Errorf("makespan = %v, want %v", res.Makespan, tt.makespan)
			}
			if res.ForcedSkips != tt.skips {
				t.Errorf("forced skips = %d, want %d", res.ForcedSkips, tt.skips)
			}
		})
	}
}

// --- Config validation ------------------------------------------------

func TestConfigValidation(t *testing.T) {
	g := workload.Fig2TG1()
	cases := []struct {
		name string
		cfg  Config
		frag string
	}{
		{"no units", Config{RUs: 0, Latency: ms(4), Policy: policy.NewLRU()}, "at least 1"},
		{"no policy", Config{RUs: 4, Latency: ms(4)}, "no replacement policy"},
		{"negative latency", Config{RUs: 4, Latency: -ms(1), Policy: policy.NewLRU()}, "negative latency"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(tt.cfg, dynlist.NewSequence(g))
			if err == nil || !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("err = %v, want mention of %q", err, tt.frag)
			}
		})
	}
}

func TestEmptyFeed(t *testing.T) {
	res, err := Run(Config{RUs: 2, Latency: ms(4), Policy: policy.NewLRU()},
		dynlist.NewSequence())
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 || res.Makespan != 0 || res.Graphs != 0 {
		t.Errorf("empty run produced work: %+v", res)
	}
}

// --- General behaviour -----------------------------------------------

// TestSingleUnit runs a chain on one unit: every task must be loaded in
// turn, evicting its predecessor.
func TestSingleUnit(t *testing.T) {
	g := taskgraph.Chain("c", 1, ms(2), ms(2), ms(2))
	res := runValidated(t, Config{RUs: 1, Latency: ms(4), Policy: policy.NewLRU()}, g)
	if res.Executed != 3 || res.Reused != 0 {
		t.Errorf("executed %d reused %d", res.Executed, res.Reused)
	}
	// load 1 [0,4], exec [4,6], load 2 [6,10], exec [10,12], load 3
	// [12,16], exec [16,18].
	if want := ms(18); res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", res.Evictions)
	}
}

// TestGraphWiderThanArray: more parallel tasks than units must still
// complete (units recycle as tasks finish).
func TestGraphWiderThanArray(t *testing.T) {
	g := taskgraph.ForkJoin("wide", 1, ms(2),
		[]simtime.Time{ms(2), ms(2), ms(2), ms(2), ms(2)}, ms(2), true)
	res := runValidated(t, Config{RUs: 2, Latency: ms(1), Policy: policy.NewLRU()}, g)
	if res.Executed != 7 {
		t.Errorf("executed %d, want 7", res.Executed)
	}
}

// TestBackToBackSameGraph: an immediately repeated graph reuses every
// configuration when it fits in the array.
func TestBackToBackSameGraph(t *testing.T) {
	g := workload.Fig2TG1() // 3 tasks
	res := runValidated(t, Config{RUs: 4, Latency: ms(4), Policy: policy.NewLRU()}, g, g, g)
	if res.Executed != 9 {
		t.Fatalf("executed %d, want 9", res.Executed)
	}
	if res.Reused != 6 {
		t.Errorf("reused = %d, want 6 (all of runs 2 and 3)", res.Reused)
	}
	if res.Loads != 3 {
		t.Errorf("loads = %d, want 3", res.Loads)
	}
}

// TestDynamicArrivals: a graph arriving after the system went idle is
// picked up when it arrives, not before.
func TestDynamicArrivals(t *testing.T) {
	g := taskgraph.Chain("c", 1, ms(2))
	arrivals, err := dynlist.NewTimed([]dynlist.Item{
		{Graph: g, Arrival: 0},
		{Graph: g, Arrival: ms(100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{RUs: 2, Latency: ms(4), Policy: policy.NewLRU(), RecordTrace: true}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Validate(graphsOf(arrivals)); err != nil {
		t.Fatal(err)
	}
	// First run: load [0,4], exec [4,6]. Second arrives at 100, config
	// still resident: reuse, exec [100,102].
	if want := ms(102); res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Reused != 1 {
		t.Errorf("reused = %d, want 1", res.Reused)
	}
	if len(res.Completions) != 2 || res.Completions[0] != ms(6) {
		t.Errorf("completions = %v", res.Completions)
	}
}

// TestDeterminism: identical configurations yield identical results.
func TestDeterminism(t *testing.T) {
	seq := workload.Fig2Sequence()
	cfg := fig2Config(policy.NewLFD())
	a := run(t, cfg, seq...)
	b := run(t, cfg, seq...)
	if a.Makespan != b.Makespan || a.Reused != b.Reused || a.Loads != b.Loads ||
		a.Events != b.Events {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestZeroLatencyNeverSlower: for every policy, the zero-latency run is a
// lower bound on the 4 ms-latency run.
func TestZeroLatencyNeverSlower(t *testing.T) {
	seq := workload.Fig3Sequence()
	pols := []policy.Policy{policy.NewLRU(), policy.NewFIFO(), policy.NewLFD(), mustLocalLFD(t, 2)}
	for _, p := range pols {
		ideal := run(t, Config{RUs: 4, Latency: 0, Policy: p}, seq...)
		real := run(t, Config{RUs: 4, Latency: ms(4), Policy: p}, seq...)
		if real.Makespan.Before(ideal.Makespan) {
			t.Errorf("%s: real %v < ideal %v", p.Name(), real.Makespan, ideal.Makespan)
		}
	}
}

// TestMaxEventsGuard: a tiny budget aborts cleanly.
func TestMaxEventsGuard(t *testing.T) {
	seq := workload.Fig2Sequence()
	_, err := Run(Config{RUs: 4, Latency: ms(4), Policy: policy.NewLRU(), MaxEvents: 3},
		dynlist.NewSequence(seq...))
	if err == nil || !strings.Contains(err.Error(), "events") {
		t.Errorf("err = %v, want event-budget error", err)
	}
}

// TestSkipNeverFiresWithoutMobility: SkipEvents with all-zero mobilities
// must behave exactly like plain ASAP.
func TestSkipNeverFiresWithoutMobility(t *testing.T) {
	plain := run(t, Config{RUs: 4, Latency: ms(4), Policy: mustLocalLFD(t, 1)},
		workload.Fig3Sequence()...)
	skip := run(t, Config{RUs: 4, Latency: ms(4), Policy: mustLocalLFD(t, 1), SkipEvents: true},
		workload.Fig3Sequence()...)
	if plain.Makespan != skip.Makespan || plain.Reused != skip.Reused || skip.Skips != 0 {
		t.Errorf("skip with zero mobility changed behaviour: %+v vs %+v", plain, skip)
	}
}

// TestSkipCounterIsPerGraph: the skipped_events counter resets between
// graph instances — the second TG2 instance can skip again.
func TestSkipCounterIsPerGraph(t *testing.T) {
	tg1, tg2 := workload.Fig3TG1(), workload.Fig3TG2()
	res := run(t, Config{
		RUs: 4, Latency: ms(4), Policy: mustLocalLFD(t, 1),
		SkipEvents: true, Mobility: fig3Mobility,
	}, tg1, tg2, tg1, tg2, tg1)
	if res.Skips < 2 {
		t.Errorf("skips = %d, want ≥ 2 (one per TG2 instance)", res.Skips)
	}
}

// rogue is a deliberately broken policy choosing a unit outside the
// candidate set.
type rogue struct{}

func (rogue) Name() string { return "rogue" }
func (rogue) Window() int  { return policy.WindowNone }
func (rogue) SelectVictim(req policy.Request, cands []policy.Candidate) policy.Decision {
	return policy.Decision{RU: 99, Victim: 12345}
}

// TestRoguePolicyCaught: a policy evicting outside the candidate set is a
// programming error and must be caught loudly, not corrupt the run.
func TestRoguePolicyCaught(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rogue policy decision not caught")
		}
	}()
	seq := workload.Fig2Sequence()
	_, _ = Run(Config{RUs: 4, Latency: ms(4), Policy: rogue{}}, dynlist.NewSequence(seq...))
}
