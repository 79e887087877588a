package sweep

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func fig9Spec(t testing.TB, rus ...int) Spec {
	t.Helper()
	pool := workload.Multimedia()
	seq, err := dynlist.RandomSequence(pool, 60, rand.New(rand.NewSource(2011)))
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Workloads: []Workload{{Pool: pool, Seq: seq}},
		RUs:       rus,
		Latencies: []simtime.Time{workload.PaperLatency()},
		Policies: []PolicySpec{
			Fixed("LRU", policy.NewLRU()),
			LocalLFD(1, false),
			LocalLFD(1, true),
			Fixed("LFD", policy.NewLFD()),
		},
	}
}

func TestExpandOrderAndIndexing(t *testing.T) {
	spec := fig9Spec(t, 4, 5, 6)
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != spec.Size() {
		t.Fatalf("expanded %d scenarios, Size() says %d", len(scenarios), spec.Size())
	}
	// Spec order: workloads, RUs, latencies, policies — policies innermost.
	want := 0
	for wi := range spec.Workloads {
		for ri, r := range spec.RUs {
			for li := range spec.Latencies {
				for pi, p := range spec.Policies {
					sc := scenarios[want]
					if sc.Index != want {
						t.Fatalf("scenario %d has Index %d", want, sc.Index)
					}
					if sc.WorkloadIdx != wi || sc.RUIdx != ri || sc.LatencyIdx != li || sc.PolicyIdx != pi {
						t.Fatalf("scenario %d axis indices = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
							want, sc.WorkloadIdx, sc.RUIdx, sc.LatencyIdx, sc.PolicyIdx, wi, ri, li, pi)
					}
					if sc.RUs != r || sc.Policy.Name != p.Name {
						t.Fatalf("scenario %d = R%d %q, want R%d %q", want, sc.RUs, sc.Policy.Name, r, p.Name)
					}
					want++
				}
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	base := fig9Spec(t, 4)
	for name, breakIt := range map[string]func(*Spec){
		"no workloads": func(s *Spec) { s.Workloads = nil },
		"empty seq":    func(s *Spec) { s.Workloads = []Workload{{}} },
		"no rus":       func(s *Spec) { s.RUs = nil },
		"bad ru":       func(s *Spec) { s.RUs = []int{0} },
		"no latencies": func(s *Spec) { s.Latencies = nil },
		"no policies":  func(s *Spec) { s.Policies = nil },
		"nil ctor":     func(s *Spec) { s.Policies = []PolicySpec{{Name: "broken"}} },
		"nil template": func(s *Spec) {
			w := s.Workloads[0]
			w.Seq = append([]*taskgraph.Graph{nil}, w.Seq...)
			s.Workloads = []Workload{w}
		},
		"arrival count": func(s *Spec) {
			w := s.Workloads[0]
			w.Arrivals = []simtime.Time{0}
			s.Workloads = []Workload{w}
		},
		"arrival order": func(s *Spec) {
			w := s.Workloads[0]
			w.Arrivals = make([]simtime.Time, len(w.Seq))
			w.Arrivals[0] = 1
			s.Workloads = []Workload{w}
		},
	} {
		s := base
		breakIt(&s)
		// The store makes the executor hash the workload before it runs.
		if _, err := (Executor{Store: resultstore.OpenMem()}).Run(s); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

// TestTimedArrivals: a workload with arrival times runs, and gets its
// baseline, on the timed arrivals, so its results are manager.Run's and
// Runner.Ideal's on them. The same sequence at time zero is a
// different workload, not a duplicate.
func TestTimedArrivals(t *testing.T) {
	spec := fig9Spec(t, 4)
	spec.Policies = spec.Policies[:2]
	untimed := spec.Workloads[0]
	timed := untimed
	timed.Arrivals = make([]simtime.Time, len(timed.Seq))
	for i := range timed.Arrivals {
		timed.Arrivals[i] = simtime.FromMs(float64(200 * i))
	}
	spec.Workloads = []Workload{untimed, timed}
	rs, err := Executor{Workers: 2}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]dynlist.Item, len(timed.Seq))
	for i, g := range timed.Seq {
		items[i] = dynlist.Item{Graph: g, Arrival: timed.Arrivals[i]}
	}
	arrivals, err := dynlist.NewTimed(items)
	if err != nil {
		t.Fatal(err)
	}
	for pi, ps := range spec.Policies {
		pol, err := ps.New()
		if err != nil {
			t.Fatal(err)
		}
		run, err := manager.Run(manager.Config{RUs: 4, Latency: spec.Latencies[0], Policy: pol}, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		ideal, err := manager.NewRunner().Ideal(4, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		got := rs.At(1, 0, 0, pi)
		if !reflect.DeepEqual(got.Run, run) || !reflect.DeepEqual(got.Ideal, ideal) {
			t.Errorf("%s: timed workload's run or baseline differs from the timed arrivals'", ps.Name)
		}
		if atZero := rs.At(0, 0, 0, pi); atZero.Run.Makespan == run.Makespan {
			t.Errorf("%s: the timed workload ran as if every application arrived at zero", ps.Name)
		}
	}
}

// TestCollectSharesArrivals: within one Collect, every simulation of a
// workload, each scenario and each ideal baseline on either worker, reads
// one arrival slice, and no run writes to it. A timed workload's slice
// carries its arrival times.
func TestCollectSharesArrivals(t *testing.T) {
	spec := fig9Spec(t, 4, 5)
	timed := spec.Workloads[0]
	timed.Arrivals = make([]simtime.Time, len(timed.Seq))
	for i := range timed.Arrivals {
		timed.Arrivals[i] = simtime.FromMs(float64(200 * i))
	}
	spec.Workloads = append(spec.Workloads, timed)
	var (
		mu    sync.Mutex
		first = make(map[int][]dynlist.Item)
		uses  = make(map[int]int)
	)
	ex := Executor{Workers: 2}
	ex.observeArrivals = func(w int, arrivals []dynlist.Item) {
		mu.Lock()
		defer mu.Unlock()
		uses[w]++
		f, ok := first[w]
		if !ok {
			first[w] = arrivals
		} else if len(arrivals) != len(f) || &arrivals[0] != &f[0] {
			t.Errorf("workload %d: a simulation got its own arrival slice", w)
		}
	}
	if _, err := ex.Run(spec); err != nil {
		t.Fatal(err)
	}
	for w := range spec.Workloads {
		// One use per scenario and one per (workload, RUs) baseline.
		if want := len(spec.RUs) * (len(spec.Policies) + 1); uses[w] != want {
			t.Errorf("workload %d: %d simulations read arrivals, want %d", w, uses[w], want)
		}
		if !reflect.DeepEqual(first[w], spec.Workloads[w].feed()) {
			t.Errorf("workload %d: the shared arrivals changed during the Collect", w)
		}
	}
	for i, it := range first[1] {
		if it.Arrival != timed.Arrivals[i] {
			t.Fatalf("timed workload: arrival %d at %v, want %v", i, it.Arrival, timed.Arrivals[i])
		}
	}
}

// TestSummaryCarriesDelays: the summary of every live scenario carries
// the delay digest of its completion times against its baseline's, the
// one a store hit serves in their place. The grid is Fig. 9's, with and
// without skip events and with and without cross-graph prefetch, over an
// untimed workload and a timed-arrival one.
func TestSummaryCarriesDelays(t *testing.T) {
	spec := fig9Spec(t, 4, 5, 6)
	for _, p := range spec.Policies {
		p.Name += " + prefetch"
		p.CrossGraphPrefetch = true
		spec.Policies = append(spec.Policies, p)
	}
	timed := spec.Workloads[0]
	timed.Arrivals = make([]simtime.Time, len(timed.Seq))
	for i := range timed.Arrivals {
		timed.Arrivals[i] = simtime.FromMs(float64(50 * i))
	}
	spec.Workloads = append(spec.Workloads, timed)
	rs, err := Executor{Workers: 2}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Results {
		d, err := metrics.Delays(r.Run, r.Ideal)
		if err != nil {
			t.Fatalf("%s: %v", r.Scenario.Name(), err)
		}
		if r.Summary.Delay != *d || d.Count != len(r.Scenario.Workload.Seq) {
			t.Errorf("%s: summary carries the delay digest %+v, want %+v", r.Scenario.Name(), r.Summary.Delay, *d)
		}
	}
}

// TestParallelMatchesSequential is the executor-level determinism check:
// a pool of 8 workers must produce exactly the results of the sequential
// path, in the same order. Run under -race this also exercises the shared
// ideal-baseline and mobility caches for data races.
func TestParallelMatchesSequential(t *testing.T) {
	spec := fig9Spec(t, 4, 5, 6)
	seqRS, err := Executor{Workers: 1}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	parRS, err := Executor{Workers: 8}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRS.Results) != len(parRS.Results) {
		t.Fatalf("sequential %d results, parallel %d", len(seqRS.Results), len(parRS.Results))
	}
	for i := range seqRS.Results {
		s, p := seqRS.Results[i], parRS.Results[i]
		if s.Scenario.Name() != p.Scenario.Name() {
			t.Fatalf("result %d: scenario %q vs %q", i, s.Scenario.Name(), p.Scenario.Name())
		}
		if !reflect.DeepEqual(s.Summary, p.Summary) {
			t.Errorf("result %d (%s): summary diverged:\nseq: %+v\npar: %+v",
				i, s.Scenario.Name(), s.Summary, p.Summary)
		}
		if s.Run.Makespan != p.Run.Makespan || s.Run.Reused != p.Run.Reused ||
			s.Run.Loads != p.Run.Loads || s.Run.Skips != p.Run.Skips {
			t.Errorf("result %d (%s): raw counters diverged", i, s.Scenario.Name())
		}
	}
}

func TestSharedBaselinesAndSummaries(t *testing.T) {
	spec := fig9Spec(t, 4, 5)
	rs, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// One ideal instance per (workload, RUs), shared across the policy axis.
	for ri := range spec.RUs {
		first := rs.At(0, ri, 0, 0)
		for pi := 1; pi < len(spec.Policies); pi++ {
			r := rs.At(0, ri, 0, pi)
			if r.Ideal != first.Ideal {
				t.Errorf("R=%d policy %d: ideal baseline not shared", spec.RUs[ri], pi)
			}
		}
	}
	// Summaries carry the axis values and display names.
	r := rs.At(0, 1, 0, 2)
	if r.Summary.PolicyName != "Local LFD (1) + Skip Events" || r.Summary.RUs != 5 {
		t.Errorf("At(0,1,0,2) = %q R=%d, want skip series at R=5", r.Summary.PolicyName, r.Summary.RUs)
	}
	// Skip events actually fired at the contended point (mobility tables
	// were wired through).
	if skips := rs.At(0, 0, 0, 2).Run.Skips; skips == 0 {
		t.Error("skip-events scenario recorded no skips at R=4 — mobility tables missing")
	}
}

func TestFirstErrorCancels(t *testing.T) {
	spec := fig9Spec(t, 4)
	boom := fmt.Errorf("boom")
	var calls atomic.Int32
	spec.Policies = []PolicySpec{
		Fixed("LRU", policy.NewLRU()),
		{Name: "broken", New: func() (policy.Policy, error) { calls.Add(1); return nil, boom }},
		Fixed("LFD", policy.NewLFD()),
	}
	_, err := Executor{Workers: 4}.Run(spec)
	if err == nil {
		t.Fatal("sweep with failing scenario succeeded")
	}
	want := `sweep: scenario 1 (broken R=4 latency=4 ms): boom`
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	// A scenario is deterministic, so a failed one is never rerun.
	if n := calls.Load(); n != 1 {
		t.Errorf("broken policy constructed %d times, want 1", n)
	}
}

// TestNegativeLatencyNamesScenario: a per-task latency function that
// returns a negative value fails the sweep with an error naming the
// scenario and the task, instead of panicking inside a worker.
func TestNegativeLatencyNamesScenario(t *testing.T) {
	spec := fig9Spec(t, 4)
	spec.Policies = spec.Policies[:1]
	odd := taskgraph.Chain("odd", 900, simtime.FromMs(2))
	spec.Workloads = append(spec.Workloads, Workload{Label: "odd", Seq: []*taskgraph.Graph{odd}})
	spec.LatencyFor = func(id taskgraph.TaskID) simtime.Time {
		if id == 900 {
			return -simtime.FromMs(1)
		}
		return workload.PaperLatency()
	}
	_, err := Executor{Workers: 2}.Run(spec)
	want := `sweep: scenario 1 (odd LRU R=4 latency=4 ms): manager: negative latency -1 ms for task 900`
	if err == nil || err.Error() != want {
		t.Errorf("error = %v, want %q", err, want)
	}
}

func TestNoBaseline(t *testing.T) {
	spec := fig9Spec(t, 4)
	spec.NoBaseline = true
	rs, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs.Results {
		if r.Run == nil {
			t.Fatalf("result %d: no run", i)
		}
		if r.Ideal != nil || r.Summary != nil {
			t.Fatalf("result %d: baseline populated despite NoBaseline", i)
		}
	}
}

func TestWorkloadTemplatesDerivedFromSeq(t *testing.T) {
	pool := workload.Multimedia()
	w := Workload{Seq: []*taskgraph.Graph{pool[0], pool[1], pool[0]}}
	got := w.templates()
	if len(got) != 2 || got[0] != pool[0] || got[1] != pool[1] {
		t.Errorf("templates() = %v, want distinct templates in first-appearance order", got)
	}
}

func TestFromSpec(t *testing.T) {
	ps, err := FromSpec("locallfd:2", true)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Name != "Local LFD (2) + Skip Events" || !ps.Skip {
		t.Errorf("FromSpec = %+v", ps)
	}
	p1, err := ps.New()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := ps.New()
	if p1 == p2 {
		t.Error("FromSpec.New returned a shared instance")
	}
	if _, err := FromSpec("nonsense", false); err == nil {
		t.Error("bad specifier accepted")
	}
}
