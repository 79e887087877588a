package experiments

import (
	"testing"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/workload"
)

// TestTableICountedRows pins Table I's counted work. A late-hit decision
// over n lookahead entries examines the four candidates and scans to
// positions n-4 … n-1, comparing 4n-6 entries; LRU scans nothing.
func TestTableICountedRows(t *testing.T) {
	opt := smallOptions()
	rows, err := CountTableI(opt)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := opt.sequence()
	if err != nil {
		t.Fatal(err)
	}
	full := len(FullFutureLookahead(seq))
	want := []struct {
		name string
		ops  int
	}{
		{"LRU", 4},
		{"LFD", 4*full - 2},
		{"Local LFD (1) + Skip Events", 42},
		{"Local LFD (2) + Skip Events", 66},
		{"Local LFD (4) + Skip Events", 114},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Name != w.name || r.Ops != w.ops || r.RatioToLRU != float64(w.ops)/4 {
			t.Errorf("row %d = %+v, want %s with %d operations", i, r, w.name, w.ops)
		}
	}
	// The paper's ordering, strictly: LRU < L1 < L2 < L4 < LFD.
	if ops := []int{rows[0].Ops, rows[2].Ops, rows[3].Ops, rows[4].Ops, rows[1].Ops}; !(ops[0] < ops[1] && ops[1] < ops[2] && ops[2] < ops[3] && ops[3] < ops[4]) {
		t.Errorf("ordering violated: LRU, L1, L2, L4, LFD = %v", ops)
	}
}

// TestTableIICountedRows pins Table II's counted costs against their
// sources: the manager's event count of one isolated run, one full scan
// of each window's lookahead (the absent worst case stops after the first
// candidate), and the mobility table's schedule count.
func TestTableIICountedRows(t *testing.T) {
	opt := smallOptions()
	rows, err := CountTableII(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name      string
		init      float64
		events    uint64
		entries   float64
		schedules int
	}{
		{"jpeg", 79, 9, 37.0 / 3, 7},
		{"mpeg1", 37, 11, 47.0 / 3, 10},
		{"hough", 94, 13, 57.0 / 3, 11},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, g := range workload.Multimedia() {
		r, w := rows[i], want[i]
		res, err := manager.Run(manager.Config{RUs: 4, Latency: opt.Latency, Policy: policy.NewLRU()}, dynlist.NewSequence(g))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := mobility.Compute(g, 4, opt.Latency)
		if err != nil {
			t.Fatal(err)
		}
		if r.Benchmark != w.name || r.InitialExecMs != w.init {
			t.Errorf("row %d = %+v, want %s with init %v ms", i, r, w.name, w.init)
		}
		if r.ManagerEvents != res.Events || r.ManagerEvents != w.events {
			t.Errorf("%s: manager events %d, want manager.Result.Events %d (%d)", r.Benchmark, r.ManagerEvents, res.Events, w.events)
		}
		if r.ModuleEntries != w.entries {
			t.Errorf("%s: module entries %v, want %v", r.Benchmark, r.ModuleEntries, w.entries)
		}
		if r.DesignSchedules != tab.Schedules || r.DesignSchedules != w.schedules {
			t.Errorf("%s: design schedules %d, want mobility.Table.Schedules %d (%d)", r.Benchmark, r.DesignSchedules, tab.Schedules, w.schedules)
		}
	}
}
