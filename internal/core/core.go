// Package core assembles the paper's complete replacement technique into a
// small public API.
//
// A System is a reconfigurable platform configuration: a number of equal
// reconfigurable units, a reconfiguration latency, a replacement policy,
// and optionally the hybrid design-time/run-time extensions (skip events
// backed by design-time mobility tables).
//
// Typical use:
//
//	sys, _ := core.NewSystem(core.Config{
//	    RUs:        4,
//	    Latency:    workload.PaperLatency(),
//	    Policy:     "locallfd:2",
//	    SkipEvents: true,
//	})
//	sys.Prepare(workload.Multimedia()...) // design-time phase
//	res, _ := sys.Run(sequence...)        // run-time phase
//	fmt.Println(res.Summary)
//
// Run executes the workload as a one-scenario sweep on the sweep
// executor, the same code that runs every figure's grid, so a result is
// exactly what a sweep reports for that configuration. Every result
// carries the paper's overhead metrics alongside the raw counters: the
// executor computes the zero-latency ideal baseline by the per-template
// recurrence of manager.Runner.Ideal.
//
// Design-time mobility tables are served from the process-wide memoized
// cache in internal/mobility, keyed by (template, RUs, latency): Systems
// with the same platform configuration share one table per template
// instead of each recomputing it. A System is safe for concurrent use.
package core

import (
	"fmt"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
)

// Config describes a system under test.
type Config struct {
	// RUs is the number of reconfigurable units.
	RUs int
	// Latency is the reconfiguration latency (e.g.
	// workload.PaperLatency()).
	Latency simtime.Time
	// Policy is either a policy.Policy or a specifier string accepted by
	// policy.Parse ("lru", "lfd", "locallfd:2", …).
	Policy any
	// SkipEvents enables the run-time skip mechanism. It requires the
	// design-time phase: call Prepare, or let Run prepare on demand.
	SkipEvents bool
	// CrossGraphPrefetch enables the extension that preloads the next
	// enqueued graph once the running one needs no more loads.
	CrossGraphPrefetch bool
	// RecordTrace retains the full execution trace on results.
	RecordTrace bool
}

// System is a configured platform ready to execute workloads.
type System struct {
	cfg Config
	pol policy.Policy
}

// NewSystem validates cfg and builds a System.
func NewSystem(cfg Config) (*System, error) {
	if cfg.RUs < 1 {
		return nil, fmt.Errorf("core: need at least one reconfigurable unit, got %d", cfg.RUs)
	}
	if cfg.Latency < 0 {
		return nil, fmt.Errorf("core: negative latency %v", cfg.Latency)
	}
	var pol policy.Policy
	switch p := cfg.Policy.(type) {
	case policy.Policy:
		pol = p
	case string:
		parsed, err := policy.Parse(p)
		if err != nil {
			return nil, err
		}
		pol = parsed
	case nil:
		return nil, fmt.Errorf("core: no policy configured")
	default:
		return nil, fmt.Errorf("core: policy must be a policy.Policy or a specifier string, got %T", p)
	}
	return &System{cfg: cfg, pol: pol}, nil
}

// Policy returns the system's replacement policy.
func (s *System) Policy() policy.Policy { return s.pol }

// Prepare runs the design-time phase (mobility calculation, Fig. 6) for
// each distinct template. It is memoized process-wide: a template another
// System (or a sweep) already prepared under the same platform
// configuration is served from the shared cache. Run prepares the
// templates it is given on demand, so Prepare only moves that work ahead.
func (s *System) Prepare(graphs ...*taskgraph.Graph) error {
	for _, g := range graphs {
		if g == nil {
			return fmt.Errorf("core: nil graph in Prepare")
		}
		// mobility.Cached single-flights concurrent callers, so parallel
		// Prepares of one template compute it once.
		if _, err := mobility.Cached(g, s.cfg.RUs, s.cfg.Latency); err != nil {
			return fmt.Errorf("core: design-time phase for %s: %w", g.Name(), err)
		}
	}
	return nil
}

// MobilityTable returns the design-time table of a template under the
// system's platform configuration, computing it if no System or sweep
// has yet; ok is false only when g has no table (a nil graph).
func (s *System) MobilityTable(g *taskgraph.Graph) (*mobility.Table, bool) {
	t, err := mobility.Cached(g, s.cfg.RUs, s.cfg.Latency)
	return t, err == nil
}

// Result couples the raw run with its ideal baseline and derived metrics.
type Result struct {
	// Run is the raw simulation outcome (trace included when requested).
	Run *manager.Result
	// Ideal is the same workload with zero reconfiguration latency.
	Ideal *manager.Result
	// Summary carries the paper's metrics (reuse rate, overhead,
	// remaining-overhead percentage).
	Summary *metrics.Summary
}

// Run executes the graph sequence (all applications available from time
// zero, as in the paper's experiments).
func (s *System) Run(seq ...*taskgraph.Graph) (*Result, error) {
	return s.run(sweep.Workload{Seq: seq})
}

// RunFeed executes an arbitrary arrival feed, such as dynlist.NewTimed or
// dynlist.RandomArrivals. mkFeed is called once and its feed drained; the
// ideal baseline replays the same arrival times.
func (s *System) RunFeed(mkFeed func() dynlist.Feed) (*Result, error) {
	var w sweep.Workload
	feed := mkFeed()
	for it, ok := feed.Next(); ok; it, ok = feed.Next() {
		w.Seq = append(w.Seq, it.Graph)
		w.Arrivals = append(w.Arrivals, it.Arrival)
	}
	return s.run(w)
}

// run executes w as a one-scenario sweep on one worker.
func (s *System) run(w sweep.Workload) (*Result, error) {
	rs, err := sweep.Executor{Workers: 1}.Run(sweep.Spec{
		Workloads: []sweep.Workload{w},
		RUs:       []int{s.cfg.RUs},
		Latencies: []simtime.Time{s.cfg.Latency},
		Policies: []sweep.PolicySpec{{
			Name: s.pol.Name(),
			// A stateful policy (Random) cannot be shared by overlapping
			// Run calls on one System, so every run gets a fork replaying
			// the same decision stream from the initial state.
			New:                func() (policy.Policy, error) { return policy.Fork(s.pol), nil },
			Skip:               s.cfg.SkipEvents,
			CrossGraphPrefetch: s.cfg.CrossGraphPrefetch,
		}},
		RecordTrace: s.cfg.RecordTrace,
	})
	if err != nil {
		return nil, err
	}
	r := rs.Results[0]
	return &Result{Run: r.Run, Ideal: r.Ideal, Summary: r.Summary}, nil
}

// Evaluate is the one-call convenience: build a system, prepare if
// needed, run the sequence.
func Evaluate(cfg Config, seq ...*taskgraph.Graph) (*Result, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run(seq...)
}
