package metrics

import (
	"fmt"
	"slices"

	"repro/internal/manager"
	"repro/internal/simtime"
)

// DelayStats summarizes per-application scheduling delay: how much later
// each application finished than it would have on an overhead-free
// system. The paper reports workload-level makespans; per-application
// percentiles matter to anyone running the technique in a soft-real-time
// setting (the multimedia context of the paper's introduction).
type DelayStats struct {
	Count int
	Mean  simtime.Time
	Max   simtime.Time
	P50   simtime.Time
	P95   simtime.Time
}

// Delays compares per-instance completion times of a run against its
// zero-latency baseline. Both results must come from the same workload.
func Delays(run, ideal *manager.Result) (*DelayStats, error) {
	if run == nil || ideal == nil {
		return nil, fmt.Errorf("metrics: nil result")
	}
	if len(run.Completions) != len(ideal.Completions) {
		return nil, fmt.Errorf("metrics: %d vs %d completions — different workloads",
			len(run.Completions), len(ideal.Completions))
	}
	n := len(run.Completions)
	stats := &DelayStats{Count: n}
	if n == 0 {
		return stats, nil
	}
	delays := make([]simtime.Time, n)
	var sum simtime.Time
	for i, c := range run.Completions {
		d := c.Sub(ideal.Completions[i])
		if d < 0 {
			return nil, fmt.Errorf("metrics: instance %d finished earlier (%v) than ideal (%v)",
				i, c, ideal.Completions[i])
		}
		delays[i] = d
		sum = sum.Add(d)
	}
	slices.Sort(delays)
	stats.Max = delays[n-1]
	stats.Mean = sum / simtime.Time(n)
	stats.P50 = percentile(delays, 50)
	stats.P95 = percentile(delays, 95)
	return stats, nil
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []simtime.Time, p int) simtime.Time {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// String renders a one-line digest.
func (d *DelayStats) String() string {
	return fmt.Sprintf("per-app delay over %d apps: mean %v, p50 %v, p95 %v, max %v",
		d.Count, d.Mean, d.P50, d.P95, d.Max)
}
