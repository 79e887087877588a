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
// Run executes the workload twice — once for real and once with zero
// reconfiguration latency, the two simulations running concurrently — so
// every result carries the paper's overhead metrics alongside the raw
// counters.
//
// Design-time mobility tables are served from the process-wide memoized
// cache in internal/mobility, keyed by (template, RUs, latency): Systems
// with the same platform configuration share one table per template
// instead of each recomputing it. A System is safe for concurrent use.
package core

import (
	"fmt"
	"sync"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/simtime"
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

	// tables is the System's view of the prepared templates. The tables
	// themselves live in the process-wide mobility cache and are shared
	// with every other System (and sweep scenario) using the same
	// (template, RUs, latency) triple.
	mu     sync.Mutex
	tables map[*taskgraph.Graph]*mobility.Table
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
	return &System{
		cfg:    cfg,
		pol:    pol,
		tables: make(map[*taskgraph.Graph]*mobility.Table),
	}, nil
}

// Policy returns the system's replacement policy.
func (s *System) Policy() policy.Policy { return s.pol }

// Prepare runs the design-time phase (mobility calculation, Fig. 6) for
// each distinct template. It is idempotent per template, and memoized
// process-wide: a template another System (or a sweep) already prepared
// under the same platform configuration is served from the shared cache.
func (s *System) Prepare(graphs ...*taskgraph.Graph) error {
	for _, g := range graphs {
		if g == nil {
			return fmt.Errorf("core: nil graph in Prepare")
		}
		s.mu.Lock()
		_, done := s.tables[g]
		s.mu.Unlock()
		if done {
			continue
		}
		// mobility.Cached single-flights concurrent callers, so parallel
		// Prepares of one template compute it once.
		t, err := mobility.Cached(g, s.cfg.RUs, s.cfg.Latency)
		if err != nil {
			return fmt.Errorf("core: design-time phase for %s: %w", g.Name(), err)
		}
		s.mu.Lock()
		s.tables[g] = t
		s.mu.Unlock()
	}
	return nil
}

// MobilityTable returns the design-time table for a prepared template.
func (s *System) MobilityTable(g *taskgraph.Graph) (*mobility.Table, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[g]
	return t, ok
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
	return s.runItems(func() dynlist.Feed { return dynlist.NewSequence(seq...) }, seq)
}

// RunFeed executes an arbitrary arrival feed. Because a Feed can only be
// consumed once, the caller supplies a constructor so the ideal baseline
// can replay the same arrivals. The real run and the baseline execute
// concurrently, so mkFeed must be safe to call from two goroutines.
func (s *System) RunFeed(mkFeed func() dynlist.Feed) (*Result, error) {
	return s.runItems(mkFeed, nil)
}

func (s *System) runItems(mkFeed func() dynlist.Feed, known []*taskgraph.Graph) (*Result, error) {
	if s.cfg.SkipEvents {
		if err := s.Prepare(known...); err != nil {
			return nil, err
		}
	}
	cfg := manager.Config{
		RUs:                s.cfg.RUs,
		Latency:            s.cfg.Latency,
		Policy:             s.pol,
		SkipEvents:         s.cfg.SkipEvents,
		CrossGraphPrefetch: s.cfg.CrossGraphPrefetch,
		RecordTrace:        s.cfg.RecordTrace,
	}
	if s.cfg.SkipEvents {
		cfg.Mobility = s.mobilityFor
	}
	// A stateful policy (Random) cannot be shared by concurrent
	// simulations — neither by the real/ideal pair below nor by
	// overlapping Run calls on one System — so every simulation gets a
	// fork replaying the same decision stream from the initial state.
	cfg.Policy = policy.Fork(s.pol)
	idealCfg := cfg
	idealCfg.Latency = 0
	idealCfg.SkipEvents = false
	idealCfg.Mobility = nil
	idealCfg.RecordTrace = false
	idealCfg.Policy = policy.Fork(s.pol)

	// The real run and its zero-latency baseline are independent
	// simulations over independent feeds — run them concurrently.
	var (
		run, ideal       *manager.Result
		runErr, idealErr error
		wg               sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ideal, idealErr = manager.Run(idealCfg, mkFeed())
	}()
	run, runErr = manager.Run(cfg, mkFeed())
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if idealErr != nil {
		return nil, fmt.Errorf("core: ideal baseline: %w", idealErr)
	}
	sum, err := metrics.Summarize(s.pol.Name(), s.cfg.RUs, s.cfg.Latency, run, ideal)
	if err != nil {
		return nil, err
	}
	return &Result{Run: run, Ideal: ideal, Summary: sum}, nil
}

// mobilityFor serves prepared tables to the manager; unprepared templates
// (possible with RunFeed) fall back to zero mobility, which is safe.
func (s *System) mobilityFor(g *taskgraph.Graph) []int {
	if t, ok := s.MobilityTable(g); ok {
		return t.Values
	}
	return nil
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

// Compare evaluates several configurations over the same sequence and
// returns results keyed by policy name (plus "+skip" when skip events are
// enabled, to keep keys unique). The configurations run concurrently —
// each gets its own System — and errors are reported for the first
// failing configuration in argument order. Each result's Ideal runs a fork
// of its own policy, where a sweep's runs LRU: at zero latency the two
// agree on Makespan and Completions, and only the counters differ.
func Compare(cfgs []Config, seq ...*taskgraph.Graph) (map[string]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			results[i], errs[i] = Evaluate(cfg, seq...)
		}(i, cfg)
	}
	wg.Wait()
	out := make(map[string]*Result, len(cfgs))
	for i, res := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		key := res.Summary.PolicyName
		if cfgs[i].SkipEvents {
			key += " +skip"
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("core: duplicate configuration %q in Compare", key)
		}
		out[key] = res
	}
	return out, nil
}
