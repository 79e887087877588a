// Package metrics derives the paper's evaluation quantities from raw run
// results and formats them as report tables.
//
// The three headline quantities are:
//
//   - reuse rate — reused tasks / executed tasks (Fig. 9a/9b);
//   - reconfiguration overhead — makespan minus the ideal (zero-latency)
//     makespan of the same workload (the per-figure "overhead" of
//     Figs. 2 and 3);
//   - remaining overhead percentage — overhead divided by the original
//     overhead, where the original is what the workload would suffer if
//     every executed task paid the full reconfiguration latency
//     (Fig. 9c's "percentage of the original reconfiguration overhead
//     that remains").
package metrics

import (
	"fmt"

	"repro/internal/manager"
	"repro/internal/simtime"
)

// Summary is the evaluated outcome of one run against its ideal baseline.
type Summary struct {
	PolicyName string
	RUs        int
	Latency    simtime.Time

	Executed int
	Reused   int
	Loads    int
	Skips    int

	Makespan      simtime.Time
	IdealMakespan simtime.Time

	// Delay digests the per-application delays of the run against the
	// baseline (see Delays). Its Count is 0 when the run has no
	// completion times, or when Delays rejects the pair.
	Delay DelayStats
}

// Summarize combines a run and its zero-latency baseline. The delay
// digest is taken here, while both sets of completion times are at hand;
// a pair Delays rejects leaves it zero and is no error of Summarize.
func Summarize(policyName string, rus int, latency simtime.Time, res, ideal *manager.Result) (*Summary, error) {
	if res == nil || ideal == nil {
		return nil, fmt.Errorf("metrics: nil result")
	}
	if res.Executed != ideal.Executed {
		return nil, fmt.Errorf("metrics: run executed %d tasks but ideal executed %d — different workloads",
			res.Executed, ideal.Executed)
	}
	if res.Makespan.Before(ideal.Makespan) {
		return nil, fmt.Errorf("metrics: run makespan %v beats ideal %v — baseline mismatch",
			res.Makespan, ideal.Makespan)
	}
	s := &Summary{
		PolicyName:    policyName,
		RUs:           rus,
		Latency:       latency,
		Executed:      res.Executed,
		Reused:        res.Reused,
		Loads:         res.Loads,
		Skips:         res.Skips,
		Makespan:      res.Makespan,
		IdealMakespan: ideal.Makespan,
	}
	if d, err := Delays(res, ideal); err == nil {
		s.Delay = *d
	}
	return s, nil
}

// ReuseRate returns reused/executed in percent (0 for an empty run).
func (s *Summary) ReuseRate() float64 {
	if s.Executed == 0 {
		return 0
	}
	return 100 * float64(s.Reused) / float64(s.Executed)
}

// Overhead returns the reconfiguration overhead: makespan − ideal.
func (s *Summary) Overhead() simtime.Time {
	return s.Makespan.Sub(s.IdealMakespan)
}

// OriginalOverhead is the overhead the workload would suffer with no
// prefetching and no reuse: one full latency per executed task.
func (s *Summary) OriginalOverhead() simtime.Time {
	return simtime.Time(int64(s.Latency) * int64(s.Executed))
}

// RemainingOverheadPct returns Overhead as a percentage of
// OriginalOverhead (Fig. 9c's metric). Zero-latency runs report 0.
func (s *Summary) RemainingOverheadPct() float64 {
	orig := s.OriginalOverhead()
	if orig == 0 {
		return 0
	}
	return 100 * float64(s.Overhead()) / float64(orig)
}

// String gives a one-line digest.
func (s *Summary) String() string {
	return fmt.Sprintf("%s R=%d: reuse %.2f%% (%d/%d), overhead %v (%.2f%% of original), makespan %v",
		s.PolicyName, s.RUs, s.ReuseRate(), s.Reused, s.Executed,
		s.Overhead(), s.RemainingOverheadPct(), s.Makespan)
}

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
