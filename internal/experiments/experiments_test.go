package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// smallOptions shrinks the Fig. 9 workload so unit tests stay fast while
// exercising the full pipeline.
func smallOptions() Options {
	return Options{
		Seed:    7,
		Apps:    60,
		RUs:     []int{4, 6},
		Latency: workload.PaperLatency(),
	}
}

func TestAllAndByID(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("experiments = %d, want 13", len(all))
	}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
	if len(IDs()) != len(all) {
		t.Error("IDs() incomplete")
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	d := DefaultOptions()
	if o.Seed != d.Seed || o.Apps != d.Apps || len(o.RUs) != len(d.RUs) || o.Latency != d.Latency {
		t.Errorf("normalized zero options = %+v, want defaults %+v", o, d)
	}
	if o.Apps != 500 || o.Latency != simtime.FromMs(4) {
		t.Errorf("paper defaults wrong: %+v", o)
	}
}

func TestSequenceDeterministic(t *testing.T) {
	o := smallOptions()
	a, err := o.sequence()
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.sequence()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 60 {
		t.Fatalf("len = %d", len(a))
	}
	// Each call builds fresh template objects, so compare by identity of
	// the drawn benchmark, not by pointer.
	for i := range a {
		if a[i].Name() != b[i].Name() {
			t.Fatalf("sequence diverged at %d: %s vs %s", i, a[i].Name(), b[i].Name())
		}
	}
}

// TestDrawsShareOneWorkloadPerCall: the experiments of one Render or
// Populate call get one workload value per (Seed, Apps), variance's
// first seed included, while another seed or another call draws anew.
func TestDrawsShareOneWorkloadPerCall(t *testing.T) {
	same := func(a, b sweep.Workload) bool { return &a.Seq[0] == &b.Seq[0] && &a.Pool[0] == &b.Pool[0] }
	var got []sweep.Workload
	grids := func(opt Options) ([]sweep.Spec, error) {
		specs, err := Fig9AGrids(opt)
		if err == nil {
			got = append(got, specs[0].Workloads[0])
			var v []sweep.Spec
			v, err = VarianceGrids(opt)
			if err == nil {
				got = append(got, v[0].Workloads[:2]...)
			}
		}
		return nil, err
	}
	run := func(opt Options, _ io.Writer) error {
		_, err := grids(opt)
		return err
	}
	exps := []Experiment{{ID: "a", Run: run, Grids: grids}, {ID: "b", Run: run, Grids: grids}}
	opt := smallOptions()
	opt.Store = resultstore.OpenMem()
	if err := Render(opt, exps, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := Populate(opt, exps, sweep.Shard{Count: 1}); err != nil {
		t.Fatal(err)
	}
	// Per call: a's fig9a, a's variance seeds 0 and 1, then the same for b.
	if len(got) != 12 {
		t.Fatalf("%d workloads captured, want 12", len(got))
	}
	for call, base := range []int{0, 6} {
		w := got[base : base+6]
		if !same(w[0], w[1]) || !same(w[0], w[3]) || !same(w[0], w[4]) || !same(w[2], w[5]) {
			t.Errorf("call %d drew one (Seed, Apps) workload more than once", call)
		}
		if same(w[0], w[2]) {
			t.Errorf("call %d served seed %d's workload for seed %d", call, opt.Seed, opt.Seed+1)
		}
	}
	if same(got[0], got[6]) {
		t.Error("a workload outlived its Render call's draw memo")
	}
}

// TestFig2Report runs the full Fig. 2 experiment and requires every
// anchor to PASS.
func TestFig2Report(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(smallOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "FAIL") {
		t.Errorf("Fig. 2 anchors failed:\n%s", out)
	}
	if strings.Count(out, "PASS") != 6 {
		t.Errorf("expected 6 PASS lines:\n%s", out)
	}
}

func TestFig3Report(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(smallOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "FAIL") {
		t.Errorf("Fig. 3 anchors failed:\n%s", out)
	}
}

func TestFig7Report(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(smallOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "FAIL") {
		t.Errorf("Fig. 7 anchors failed:\n%s", out)
	}
}

// TestFig9Shapes runs the three Fig. 9 experiments on a reduced workload
// and checks the qualitative claims hold: LRU reuse below Local LFD,
// Local LFD approaching LFD with window size, and skip events lifting
// reuse above plain Local LFD.
func TestFig9Shapes(t *testing.T) {
	opt := smallOptions()
	for _, run := range []struct {
		name string
		fn   Runner
	}{
		{"fig9a", Fig9A}, {"fig9b", Fig9B}, {"fig9c", Fig9C},
	} {
		var buf bytes.Buffer
		if err := run.fn(opt, &buf); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		out := buf.String()
		if !strings.Contains(out, "LRU") || !strings.Contains(out, "LFD") {
			t.Errorf("%s: missing series:\n%s", run.name, out)
		}
		if !strings.Contains(out, "Avg.") {
			t.Errorf("%s: missing average column", run.name)
		}
	}
}

func TestAblationReport(t *testing.T) {
	opt := smallOptions()
	var buf bytes.Buffer
	if err := Ablation(opt, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"window sweep", "FIFO", "MRU", "Random", "10×", "hybrid 6 decisions × 11 lookahead entries", "plus 11 design-time schedules"} {
		if !strings.Contains(out, frag) {
			t.Errorf("ablation report missing %q", frag)
		}
	}
}

func TestWorstCaseConstruction(t *testing.T) {
	full := FullFutureLookahead(smallSequence(t, 10))
	if len(full) == 0 {
		t.Fatal("empty full lookahead")
	}
	wc := NewWorstCase(full)
	if len(wc.Candidates) != 4 {
		t.Fatalf("candidates = %d, want 4 (the paper's scenario)", len(wc.Candidates))
	}
	for _, c := range wc.Candidates {
		for _, id := range full {
			if id == c.Task {
				t.Fatalf("candidate %d occurs in lookahead — not worst case", c.Task)
			}
		}
	}
	w1, w4 := WindowLookahead(1), WindowLookahead(4)
	if len(w4) <= len(w1) {
		t.Errorf("window lookahead must grow: %d vs %d", len(w1), len(w4))
	}
}

func smallSequence(t *testing.T, n int) []*taskgraph.Graph {
	t.Helper()
	o := Options{Seed: 3, Apps: n, Latency: workload.PaperLatency(), RUs: []int{4}}
	seq, err := o.sequence()
	if err != nil {
		t.Fatal(err)
	}
	return seq
}
