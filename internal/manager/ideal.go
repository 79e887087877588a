package manager

import (
	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// Ideal returns the zero-latency ideal run of feed on rus units, the
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
// reads them. The feed is checked as Run checks it.
func (r *Runner) Ideal(rus int, feed dynlist.Feed) (*Result, error) {
	cfg := Config{RUs: rus, Policy: policy.NewLRU()}
	if err := r.Reset(cfg); err != nil {
		return nil, err
	}
	if err := r.start(feed); err != nil {
		return nil, err
	}
	// The template runs below refill arrivals: keep the checked feed out
	// of their way and hand its buffer back afterwards.
	items := r.arrivals
	r.arrivals = nil
	defer func() { r.arrivals = items[:0] }()
	alone := make(map[*taskgraph.Graph]simtime.Time)
	out := &Result{Graphs: len(items), Completions: make([]simtime.Time, len(items))}
	var done simtime.Time
	for i, it := range items {
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
		out.Completions[i] = done
		out.Makespan = max(out.Makespan, done)
		out.Executed += it.Graph.NumTasks()
	}
	return out, nil
}
