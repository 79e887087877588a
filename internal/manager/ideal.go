package manager

import (
	"fmt"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// Ideal returns the zero-latency ideal run of arrivals on rus units, the
// baseline of every reconfiguration overhead: Run at Latency 0 with no
// skip events and no prefetch, without simulating the whole sequence.
//
// Applications run one after another, and at zero latency a load takes no
// time whether it is a reuse or not, so with no prefetch an application's
// run time D depends only on its template and rus. Ideal simulates each
// distinct template alone once, under LRU, and completes application k at
// c_k = max(arrival_k, c_{k-1}) + D(template_k) (TestIdealMatchesRun).
// It fills Makespan, Completions, Graphs and Executed; Reused, Loads,
// Evictions, Events and Templates stay zero or nil, since no baseline
// reads them. The arrivals are checked as Run checks them, without sizing
// any of Run's whole-sequence buffers.
func (r *Runner) Ideal(rus int, arrivals []dynlist.Item) (*Result, error) {
	if rus < 1 { // as Reset checks it
		return nil, fmt.Errorf("manager: need at least 1 reconfigurable unit, got %d", rus)
	}
	cfg := Config{RUs: rus, Policy: policy.NewLRU()}
	alone := make(map[*taskgraph.Graph]simtime.Time)
	out := &Result{Graphs: len(arrivals), Completions: make([]simtime.Time, 0, len(arrivals))}
	var prev, done simtime.Time
	for i, it := range arrivals {
		if err := checkArrival(i, it, prev); err != nil {
			return nil, err
		}
		prev = it.Arrival
		d, ok := alone[it.Graph]
		if !ok {
			res, err := r.Run(cfg, dynlist.NewSequence(it.Graph))
			if err != nil {
				return nil, err
			}
			d = res.Makespan
			alone[it.Graph] = d
		}
		if i == 0 || it.Arrival.After(done) {
			done = it.Arrival
		}
		done = done.Add(d)
		out.Completions = append(out.Completions, done)
		out.Makespan = max(out.Makespan, done)
		out.Executed += it.Graph.NumTasks()
	}
	return out, nil
}
