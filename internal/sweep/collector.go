package sweep

import (
	"fmt"

	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// Collector receives completed scenario results as a sweep streams them
// out: one Collect call per executed scenario, always in spec order
// regardless of completion order, always from a single goroutine (a
// Collector needs no locking). Returning an error cancels the rest of
// the sweep.
//
// The executor holds on to a result only until its turn comes — at most
// a bounded reorder window of them (see Executor.Collect) — so a
// Collector that drops or condenses results caps the sweep's memory at
// O(workers) raw runs no matter how large the grid is. A result served
// from the store carries the run's counters and the stored summary only;
// completion times, traces and the ideal baseline reach a Collector from
// live runs alone (see Result).
type Collector interface {
	Collect(*Result) error
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(*Result) error

// Collect calls f.
func (f CollectorFunc) Collect(r *Result) error { return f(r) }

// Discard drops every result. With Executor.Store attached this is the
// write-through population mode: the sweep's only output is the store
// entries it persists — exactly what a shard run feeding a shared store
// wants (the report is rendered later, from the merged store).
var Discard Collector = CollectorFunc(func(*Result) error { return nil })

// ResultSetCollector accumulates every streamed result in spec order —
// the classic Run behaviour, O(grid) memory. Use it when a report needs
// raw runs (traces, completion times, which only live runs carry);
// summary-only grids should prefer a RowRenderer.
type ResultSetCollector struct {
	Results []*Result
}

// Collect appends the result.
func (c *ResultSetCollector) Collect(r *Result) error {
	c.Results = append(c.Results, r)
	return nil
}

// RunCounters is the O(1)-size residue of a raw run that summary-only
// reports consume: every scalar counter, none of the per-task slices
// (completion times, traces) that make a manager.Result O(workload).
type RunCounters struct {
	Executed, Reused, Loads, Evictions int
	Skips, ForcedSkips, Preloads       int
	Makespan                           simtime.Time
}

// countersOf captures the scalar counters of a completed run.
func countersOf(r *manager.Result) RunCounters {
	if r == nil {
		return RunCounters{}
	}
	return RunCounters{
		Executed: r.Executed, Reused: r.Reused, Loads: r.Loads, Evictions: r.Evictions,
		Skips: r.Skips, ForcedSkips: r.ForcedSkips, Preloads: r.Preloads,
		Makespan: r.Makespan,
	}
}

// ReuseRate returns reused/executed in percent (0 for an empty run),
// matching metrics.Summary.ReuseRate for sweeps run without baselines.
func (c RunCounters) ReuseRate() float64 {
	if c.Executed == 0 {
		return 0
	}
	return 100 * float64(c.Reused) / float64(c.Executed)
}

// SummaryRow is what a RowRenderer keeps per scenario: the derived
// metrics summary (nil when the sweep ran with Spec.NoBaseline) plus the
// scalar run counters. It holds no *manager.Result, so the raw run and
// its ideal baseline are garbage the moment the row is collected.
type SummaryRow struct {
	Scenario Scenario
	// Summary carries the paper's metrics; nil under Spec.NoBaseline.
	Summary *metrics.Summary
	// Counters are the scalar counters of the raw run.
	Counters RunCounters
}

// condense captures the O(1)-size SummaryRow of one streamed result.
// The raw run and ideal baseline become garbage the moment the caller
// drops r.
func condense(r *Result) SummaryRow {
	return SummaryRow{
		Scenario: r.Scenario,
		Summary:  r.Summary,
		Counters: countersOf(r.Run),
	}
}

// RowRenderer groups a sweep's streamed results into report rows and
// hands each row over the moment its last scenario lands. It is the
// streaming report primitive on top of the Collector pipeline: it
// retains at most one in-progress block — O(1) in the grid size —
// because it renders and forgets. Every grid report
// (the experiments' figure tables, the CLIs' sweep tables) sits on it,
// which is what makes tables print incrementally while a sweep runs and,
// in a coordinator watch-mode merge, the moment each scenario is stored
// by a remote shard.
//
// Scenarios arrive in spec order (policies innermost), so a report's
// rows must be contiguous runs of spec order: transpose a table if its
// natural rows lie along an outer axis (a "policy × RUs" figure becomes
// "RUs \ policy" so each unit count's row completes as its policy block
// streams past).
type RowRenderer struct {
	// Sizes is the sequence of consecutive block sizes, in scenarios per
	// report row; after the sequence is exhausted the last size repeats.
	// Empty means 1 (one rendered row per scenario). Typical tables use
	// one size — the length of the innermost axis.
	Sizes []int
	// Emit renders completed block i. The rows slice is reused for the
	// next block: consume it, do not retain it.
	Emit func(i int, rows []SummaryRow) error

	block   []SummaryRow
	emitted int
}

// size returns the current block's expected size.
func (r *RowRenderer) size() int {
	switch {
	case len(r.Sizes) == 0:
		return 1
	case r.emitted < len(r.Sizes):
		return r.Sizes[r.emitted]
	default:
		return r.Sizes[len(r.Sizes)-1]
	}
}

// Collect condenses the result into the current block and emits the
// block once full.
func (r *RowRenderer) Collect(res *Result) error {
	if r.size() < 1 {
		return fmt.Errorf("sweep: RowRenderer block %d has non-positive size %d", r.emitted, r.size())
	}
	r.block = append(r.block, condense(res))
	if len(r.block) < r.size() {
		return nil
	}
	block := r.block
	r.block = r.block[:0]
	i := r.emitted
	r.emitted++
	return r.Emit(i, block)
}

// Close verifies the stream ended on a row boundary; a partial block
// left behind means the declared Sizes do not tile the grid — a report
// bug, not a sweep error.
func (r *RowRenderer) Close() error {
	if len(r.block) != 0 {
		return fmt.Errorf("sweep: render stream ended mid-row: %d of %d scenarios of row %d collected",
			len(r.block), r.size(), r.emitted)
	}
	return nil
}

// Rows reports how many report rows have been emitted.
func (r *RowRenderer) Rows() int { return r.emitted }
