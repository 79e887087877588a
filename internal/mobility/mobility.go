// Package mobility implements the design-time phase of the paper's
// replacement technique (Fig. 6): computing, for every task of a graph,
// how many events its reconfiguration can be postponed without degrading
// the graph's isolated makespan.
//
// The calculation simulates the graph alone on an otherwise-empty system.
// A task's candidate mobility m is tested by forcing its load to skip m
// events (manager.Config.DelayPlan); the largest m that leaves the
// makespan at the reference value is the task's mobility. The first task
// of the reconfiguration sequence is pinned to mobility 0, as in the
// paper.
//
// The paper performs this work at design time precisely because it is
// orders of magnitude more expensive than a run-time replacement decision
// (its Table II).
package mobility

import (
	"fmt"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// Table holds the design-time results for one graph under one system
// configuration. Mobility values are indexed by local task index.
type Table struct {
	Graph   *taskgraph.Graph
	RUs     int
	Latency simtime.Time
	// Values[i] is the mobility of the task at local index i.
	Values []int
	// RefMakespan is the reference (all-mobility-zero) isolated makespan.
	RefMakespan simtime.Time
	// Schedules counts how many full schedules were simulated — the cost
	// driver the paper's hybrid split is about.
	Schedules int
}

// saturationCap bounds the candidate-mobility search. A task can never
// usefully skip more events than the isolated schedule generates; the cap
// is a defensive multiple of that.
func saturationCap(g *taskgraph.Graph) int { return 4*g.NumTasks() + 16 }

// Compute runs the design-time phase for g on a system with the given
// number of units and reconfiguration latency.
func Compute(g *taskgraph.Graph, rus int, latency simtime.Time) (*Table, error) {
	if g == nil {
		return nil, fmt.Errorf("mobility: nil graph")
	}
	base := manager.Config{RUs: rus, Latency: latency, Policy: policy.NewLRU()}
	ref, err := isolated(base, g, nil)
	if err != nil {
		return nil, fmt.Errorf("mobility: reference schedule: %w", err)
	}
	t := &Table{
		Graph:       g,
		RUs:         rus,
		Latency:     latency,
		Values:      make([]int, g.NumTasks()),
		RefMakespan: ref.Makespan,
		Schedules:   1,
	}
	rec := g.RecSequence()
	cap := saturationCap(g)
	// Every task except the first of the reconfiguration sequence is a
	// member of the paper's Task Set TS.
	for _, local := range rec[1:] {
		m := 0
		for m < cap {
			trial := m + 1
			res, err := isolated(base, g, map[int]int{local: trial})
			t.Schedules++
			if err != nil {
				return nil, fmt.Errorf("mobility: task %d trial %d: %w",
					g.Task(local).ID, trial, err)
			}
			if res.Makespan.After(ref.Makespan) {
				break // trial infeasible; keep m
			}
			if res.ForcedSkips < trial {
				// The simulator ran out of events before consuming the
				// whole budget: larger budgets behave identically, so the
				// mobility saturates at what was actually consumable.
				m = res.ForcedSkips
				break
			}
			m = trial
		}
		t.Values[local] = m
	}
	return t, nil
}

// isolated simulates g alone under base with the given forced-delay plan.
func isolated(base manager.Config, g *taskgraph.Graph, plan map[int]int) (*manager.Result, error) {
	cfg := base
	cfg.DelayPlan = plan
	return manager.Run(cfg, dynlist.NewSequence(g))
}

// Lookup returns a manager.Config.Mobility function serving the given
// tables (keyed by graph template). Graphs without a table get zero
// mobilities.
func Lookup(tables ...*Table) func(*taskgraph.Graph) []int {
	m := make(map[*taskgraph.Graph][]int, len(tables))
	for _, t := range tables {
		m[t.Graph] = t.Values
	}
	return func(g *taskgraph.Graph) []int { return m[g] }
}

// ComputeAll runs Compute for every distinct template in graphs and
// returns a ready-to-use lookup plus the tables (in first-appearance
// order).
func ComputeAll(graphs []*taskgraph.Graph, rus int, latency simtime.Time) (func(*taskgraph.Graph) []int, []*Table, error) {
	seen := make(map[*taskgraph.Graph]bool)
	var tables []*Table
	for _, g := range graphs {
		if seen[g] {
			continue
		}
		seen[g] = true
		t, err := Compute(g, rus, latency)
		if err != nil {
			return nil, nil, err
		}
		tables = append(tables, t)
	}
	return Lookup(tables...), tables, nil
}

// String renders the table in task-ID order.
func (t *Table) String() string {
	s := fmt.Sprintf("mobility of %s (R=%d, latency %v, ref makespan %v):",
		t.Graph.Name(), t.RUs, t.Latency, t.RefMakespan)
	for _, local := range t.Graph.RecSequence() {
		s += fmt.Sprintf(" %d:%d", t.Graph.Task(local).ID, t.Values[local])
	}
	return s
}
