package experiments

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/sweep"
)

// ablationWindows is the Dynamic List window sweep, going past the
// paper's stop at 4.
var ablationWindows = []int{1, 2, 3, 4, 6, 8}

// ablationRUs is the paper's most contended point, where replacement
// decisions matter most.
const ablationRUs = 4

// ablationSpec assembles the single sweep Spec behind ablations 1–3:
// both window variants across every window, then the classic baselines,
// all over one shared ideal baseline. The window-major policy order is
// what the streaming renderer relies on: each variant's windows are
// contiguous, so a table row completes as one block of spec order.
func ablationSpec(opt Options) (spec sweep.Spec, baselines []sweep.PolicySpec, err error) {
	wl, err := opt.sweepWorkload()
	if err != nil {
		return sweep.Spec{}, nil, err
	}
	var series []sweep.PolicySpec
	for _, skip := range []bool{false, true} {
		for _, ww := range ablationWindows {
			series = append(series, sweep.LocalLFD(ww, skip))
		}
	}
	baselines = []sweep.PolicySpec{
		lruSeries(),
		sweep.Fixed("FIFO", policy.NewFIFO()),
		sweep.Fixed("MRU", policy.NewMRU()),
		{
			// Hand-built spec: the Key must carry the seed (the display
			// name "Random" would alias differently-seeded runs in the
			// result store).
			Name: "Random",
			Key:  fmt.Sprintf("random:%d", opt.Seed),
			New:  func() (policy.Policy, error) { return policy.NewRandom(opt.Seed), nil },
		},
		lfdSeries(),
	}
	series = append(series, baselines...)
	spec = sweep.Spec{
		Workloads: []sweep.Workload{wl},
		RUs:       []int{ablationRUs},
		Latencies: []simtime.Time{opt.Latency},
		Policies:  series,
	}
	return spec, baselines, nil
}

// AblationGrids declares the ablation grid for shard populate runs (the
// counted ablation 4 has nothing to persist).
func AblationGrids(opt Options) ([]sweep.Spec, error) {
	spec, _, err := ablationSpec(opt.normalized())
	return oneGrid(spec, err)
}

// Ablation probes the design choices behind the paper's technique beyond
// what its own figures cover:
//
//  1. Dynamic List window sweep 1..8 — how much future knowledge Local
//     LFD actually needs (the paper stops at 4).
//  2. Skip-events contribution per window — isolating the feature's
//     effect at fixed lookahead.
//  3. Extra baselines (FIFO, MRU, Random) — placing the paper's LRU
//     baseline among other classic policies.
//
// All runs use the Fig. 9 workload at R=4 as one streaming sweep Spec,
// rendered row by row: the window axis is flattened into the policy axis
// with each variant's windows contiguous, so every table row of
// ablations 1+2 is a contiguous block of spec order and prints the
// moment its last window scenario lands; the baseline scenarios that
// follow stream as one line each. Only the overhead table's cells are
// carried across the sweep (O(variants × windows) floats — the second
// table of one pass, never result rows).
func Ablation(opt Options, w io.Writer) error {
	opt = opt.normalized()
	spec, baselines, err := ablationSpec(opt)
	if err != nil {
		return err
	}
	windows := ablationWindows
	variantNames := []string{"Local LFD", "Local LFD + Skip Events"}

	section(w, fmt.Sprintf("Ablation 1+2 — Dynamic List window sweep at R=%d (%d apps, seed %d)",
		ablationRUs, len(spec.Workloads[0].Seq), opt.Seed))
	cols := make([]string, len(windows))
	for i, ww := range windows {
		cols[i] = strconv.Itoa(ww)
	}
	reuseTab := metrics.NewStreamTable(w, metrics.StreamTableConfig{
		Title:     "reuse rate (%) by window",
		XLabel:    "variant \\ window",
		RowLabels: variantNames,
		XValues:   cols,
	})

	over := make([][]float64, len(variantNames))
	baselinesStarted := false
	rr := &sweep.RowRenderer{
		// Two window-sweep rows, then one line per baseline policy.
		Sizes: []int{len(windows), len(windows), 1},
		Emit: func(i int, rows []sweep.SummaryRow) error {
			if i < len(variantNames) {
				reuse := make([]float64, len(rows))
				for wi, row := range rows {
					reuse[wi] = row.Summary.ReuseRate()
					over[i] = append(over[i], row.Summary.RemainingOverheadPct())
				}
				return reuseTab.FloatRow(variantNames[i], reuse...)
			}
			if !baselinesStarted {
				// The reuse table is complete: flush the overhead table
				// accumulated alongside it, then open ablation 3.
				baselinesStarted = true
				fmt.Fprintln(w)
				overTab := metrics.NewStreamTable(w, metrics.StreamTableConfig{
					Title:     "remaining overhead (%) by window",
					XLabel:    "variant \\ window",
					RowLabels: variantNames,
					XValues:   cols,
				})
				for vi, name := range variantNames {
					if err := overTab.FloatRow(name, over[vi]...); err != nil {
						return err
					}
				}
				section(w, "Ablation 3 — classic cache policies as additional baselines (R=4)")
				fmt.Fprintf(w, "%-12s %12s %16s\n", "policy", "reuse (%)", "remaining (%)")
			}
			s := rows[0].Summary
			fmt.Fprintf(w, "%-12s %12.2f %16.2f\n", rows[0].Scenario.Policy.Name, s.ReuseRate(), s.RemainingOverheadPct())
			return nil
		},
	}
	if err := opt.executor().Collect(spec, rr); err != nil {
		return err
	}
	if err := rr.Close(); err != nil {
		return err
	}
	if want := len(variantNames) + len(baselines); rr.Rows() != want {
		return fmt.Errorf("ablation rendered %d rows, grid declares %d", rr.Rows(), want)
	}

	section(w, "Ablation 4 — hybrid vs purely run-time technique (abstract's 10× claim)")
	c, err := CountHybridVsPureRuntime(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "run-time work per Hough arrival (worst case): hybrid %d decisions × %d lookahead entries;\n",
		c.Decisions, c.Entries)
	fmt.Fprintf(w, "purely run-time: the same decisions plus %d design-time schedules simulated\n", c.Schedules)
	fmt.Fprintln(w, "(the paper reports ~10× on its PowerPC platform; host ratio: BenchmarkHybridVsPureRuntime)")
	return nil
}
