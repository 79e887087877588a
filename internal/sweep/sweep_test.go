package sweep

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func fig9Spec(t testing.TB, rus ...int) Spec {
	t.Helper()
	pool := workload.Multimedia()
	feed, err := dynlist.RandomSequence(pool, 60, rand.New(rand.NewSource(2011)))
	if err != nil {
		t.Fatal(err)
	}
	items := feed.Remaining()
	seq := make([]*taskgraph.Graph, len(items))
	for i, it := range items {
		seq[i] = it.Graph
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
	} {
		s := base
		breakIt(&s)
		if _, err := (Executor{}).Run(s); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
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
	if got := rs.Summaries(); len(got) != spec.Size() || got[0] != rs.Results[0].Summary {
		t.Error("Summaries() does not mirror spec order")
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
	spec.Policies = []PolicySpec{
		Fixed("LRU", policy.NewLRU()),
		{Name: "broken", New: func() (policy.Policy, error) { return nil, boom }},
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
