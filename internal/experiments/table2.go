package experiments

import (
	"fmt"
	"io"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TableIIRow is one benchmark's counted costs.
type TableIIRow struct {
	Benchmark string
	// InitialExecMs is the application's no-overhead execution time
	// (paper column 2; exact: 79 / 37 / 94 ms by construction).
	InitialExecMs float64
	// ManagerEvents stands for paper column 3, the run-time cost of the
	// task-graph execution manager: the simulator events of one isolated
	// instance driven through the event loop (manager.Result.Events).
	ManagerEvents uint64
	// ModuleEntries is the run-time replacement module's worst-case
	// decision in lookahead entries compared, averaged over Dynamic List
	// windows 1, 2 and 4 (paper column 4 averages the same three).
	ModuleEntries float64
	// DesignSchedules is the design-time mobility calculation (paper
	// column 6) in isolated schedules simulated (mobility.Table.Schedules).
	// Each is one run like the manager column's, so DesignSchedules is
	// also the design/manager ratio.
	DesignSchedules int
}

// CountTableII counts the Table II costs of the three multimedia
// benchmarks on a 4-unit system. Their host times are
// BenchmarkTableIIManager's and BenchmarkTableIIDesignTime's.
func CountTableII(opt Options) ([]TableIIRow, error) {
	opt = opt.normalized()
	rows := make([]TableIIRow, 0, 3)
	for _, g := range workload.Multimedia() {
		res, err := manager.Run(manager.Config{RUs: 4, Latency: opt.Latency, Policy: policy.NewLRU()}, dynlist.NewSequence(g))
		if err != nil {
			return nil, err
		}
		entries := make([]float64, 0, 3)
		for _, w := range []int{1, 2, 4} {
			pol, err := sweep.LocalLFD(w, true).New()
			if err != nil {
				return nil, err
			}
			entries = append(entries, float64(countDecision(pol, NewWorstCase(windowLookaheadFor(g, w)))))
		}
		tab, err := mobility.Compute(g, 4, opt.Latency)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIIRow{
			Benchmark:       g.Name(),
			InitialExecMs:   g.CriticalPath().Ms(),
			ManagerEvents:   res.Events,
			ModuleEntries:   metrics.Mean(entries),
			DesignSchedules: tab.Schedules,
		})
	}
	return rows, nil
}

// windowLookaheadFor builds the worst-case lookahead for one benchmark:
// its own remainder plus w copies of itself in the Dynamic List.
func windowLookaheadFor(g *taskgraph.Graph, w int) []taskgraph.TaskID {
	out := append([]taskgraph.TaskID(nil), g.RecSequenceIDs()[1:]...)
	for i := 0; i < w; i++ {
		out = append(out, g.RecSequenceIDs()...)
	}
	return out
}

// tableIIPaperDesignPerManager is the paper's design/manager time
// ratio per benchmark (PowerPC @100 MHz: design 8.60/11.09/14.48 ms over
// manager 0.87/1.02/0.88 ms).
var tableIIPaperDesignPerManager = map[string]float64{
	"jpeg": 8.60 / 0.87, "mpeg1": 11.09 / 1.02, "hough": 14.48 / 0.88,
}

// TableII writes the Table II report: the replacement module's run-time
// impact per benchmark, counted, next to the paper's PowerPC ratios.
func TableII(opt Options, w io.Writer) error {
	rows, err := CountTableII(opt)
	if err != nil {
		return err
	}
	section(w, "Table II — impact of the replacement module (R=4)")
	fmt.Fprintf(w, "%-10s %10s %15s %15s %15s %13s\n",
		"benchmark", "init (ms)", "manager events", "module entries", "design/manager", "paper ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.0f %15d %15.1f %15d %13.1f\n",
			r.Benchmark, r.InitialExecMs, r.ManagerEvents, r.ModuleEntries,
			r.DesignSchedules, tableIIPaperDesignPerManager[r.Benchmark])
	}
	fmt.Fprintln(w, "\ndesign/manager: isolated schedules the design-time phase simulates, per isolated manager run.")
	fmt.Fprintln(w, "paper values (PowerPC @100 MHz): init 79/37/94 ms; manager 0.87/1.02/0.88 ms;")
	fmt.Fprintln(w, "module 0.08153 ms (avg over DL 1/2/4, 0.09–0.22 % of init); design 8.60/11.09/14.48 ms.")
	fmt.Fprintln(w, "expected shape: the design-time phase about an order of magnitude above the manager.")
	fmt.Fprintln(w, "(host times: BenchmarkTableIIManager, BenchmarkTableIIDesignTime)")
	return nil
}

// HybridVsPure counts the abstract's 10× claim for one Hough arrival in
// the worst case: the hybrid technique's run-time work is Decisions
// replacement decisions of Entries lookahead entries each, and an
// equivalent purely run-time technique does the same plus the mobility
// calculation's Schedules isolated runs. Entries and schedules are
// different units, so no ratio is taken; BenchmarkHybridVsPureRuntime
// times both on the host.
type HybridVsPure struct {
	Decisions, Entries, Schedules int
}

// CountHybridVsPureRuntime counts HybridVsPure for the largest
// benchmark, the paper's worst case, with one decision per task.
func CountHybridVsPureRuntime(opt Options) (HybridVsPure, error) {
	opt = opt.normalized()
	g := workload.Hough()
	pol, err := sweep.LocalLFD(1, true).New()
	if err != nil {
		return HybridVsPure{}, err
	}
	tab, err := mobility.Compute(g, 4, opt.Latency)
	if err != nil {
		return HybridVsPure{}, err
	}
	return HybridVsPure{
		Decisions: g.NumTasks(),
		Entries:   countDecision(pol, NewWorstCase(windowLookaheadFor(g, 1))),
		Schedules: tab.Schedules,
	}, nil
}
