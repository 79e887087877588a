package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/taskgraph"
)

// Executor runs the scenarios of a Spec on a bounded worker pool and
// streams the results, in spec order, into a Collector.
//
// Results are collected in spec order regardless of completion order, and
// every shared input is computed once: the zero-latency ideal baseline
// once per (workload, RUs) — with the LRU policy, exactly as the paper's
// figures do — per sweep, and with a Store attached once per store (see
// idealCache); the design-time mobility tables once per (template, RUs,
// latency) through the process-wide mobility cache. The first scenario
// error cancels the remaining work.
//
// Scenarios are dispatched to the pool longest-processing-time first
// (LPT) rather than in spec order, ranked by their load — workload
// length over unit count (scenarioLoad), ties to spec order. The rank is
// a pure function of the grid: nothing is read from the store and
// nothing is learned while the sweep runs, so a fully warm sweep reads
// each entry exactly once, to serve it. Collection stays in spec order
// either way, held to a bounded reorder window so a sweep never buffers
// more than O(workers) completed results — the property that lets
// SummaryCollector sweeps run grids far larger than memory would hold as
// ResultSets. The memory bound and the look-ahead are the same knob:
// dispatch may reorder only within the window (in-order collection could
// otherwise buffer the whole grid), so on grids larger than the window
// the heavy scenarios are front-run within each window's reach rather
// than globally. TestDispatchReplay replays recorded scenario times
// through this window-and-pick step (nextDispatch) and pins how close it
// comes to the best possible makespan.
//
// With a Store attached, every scenario's canonical config hash is looked
// up before it runs: hits are served from disk (entry and ideal-baseline
// artifact: nothing reruns) and misses are written back on
// completion — unless the sweep has already failed, in which case no
// further entries are persisted (a cancelled sweep must never silently
// populate the store with the scenarios that happened to finish). Stored
// results carry the exact counters, completions and summary of a live
// run, so a warm sweep is byte-identical in every report to a cold one.
// Specs the store cannot identify canonically (see Spec.Cacheable)
// bypass it transparently.
//
// With Spec.Shard set, only the shard's slice of the grid runs; config
// hashes and spec order are shard-independent, so N shard runs into one
// shared store tile the grid exactly and a later store-only sweep (see
// RequireStored) merges them into the full report.
type Executor struct {
	// Workers bounds the number of concurrently running scenarios; values
	// ≤ 0 mean runtime.GOMAXPROCS(0). Workers == 1 is the sequential
	// execution the determinism tests compare against.
	Workers int
	// Store, when non-nil, persists scenario results keyed by canonical
	// config hash and serves overlapping re-runs from disk.
	Store *resultstore.Store
	// RequireStored turns a store miss on a cacheable scenario into an
	// error instead of a re-simulation: the merge mode after sharded
	// populate runs, where silently re-simulating would paper over a
	// shard that never ran. Uncacheable specs (which can never be in the
	// store) still run live. Requires Store.
	RequireStored bool
	// StoreWait softens RequireStored from "missing now means failed"
	// into "missing now means not stored yet": a cacheable scenario
	// absent from the store is awaited — polled via Store.Probe —
	// until a producer lands it or StoreWait.Done reports no producer
	// ever will. This is the watch-mode merge: it may start before (or
	// while) a coordinator pool populates the store, and each scenario is
	// served the moment its entry appears, so a streaming collector
	// renders rows while remote shards are still running. Requires
	// RequireStored (and therefore Store).
	StoreWait *StoreWait
	// SpecOrderDispatch feeds scenarios to the pool in spec order instead
	// of descending load. Results are identical either way; this exists
	// for benchmarks comparing the dispatch strategies and as an escape
	// hatch should load ranking ever misjudge a workload badly.
	SpecOrderDispatch bool
	// MaxScenarioRetries is the per-scenario retry budget for live
	// simulation errors: a failing scenario reruns up to this many extra
	// times with jittered exponential backoff before its error fails the
	// sweep, so one flaky scenario no longer burns a whole shard
	// generation. 0 (the default) fails on the first error — the classic
	// behavior. Store misses under RequireStored and store-wait verdicts
	// are never retried: they are coverage facts, not flaky work. The
	// attempt count (and, past the first attempt, the last retried error
	// and retry time) is recorded in the store entry — see
	// resultstore.Entry.Attempts.
	MaxScenarioRetries int
	// RetryBackoff is the base delay before the first retry, doubled per
	// further attempt and jittered over [d/2, 3d/2) so pooled workers
	// retrying a shared flaky dependency do not stampede in lockstep;
	// values ≤ 0 mean 100ms.
	RetryBackoff time.Duration
	// ResumeSkip treats the first N owned positions as already collected
	// (typically loaded from a Checkpoint): they are neither probed,
	// dispatched, nor delivered to the collector. Only meaningful when
	// the collector does not need the skipped results — the sharded
	// populate path's Discard — so prefer CollectResumable, which pairs
	// the skip with the checkpoint bookkeeping that makes it safe.
	ResumeSkip int

	// retrySleep overrides the retry backoff sleep; tests inject it to
	// pin the budget and the backoff schedule without wall-clock waits.
	// It returns false when the sweep was cancelled mid-sleep.
	retrySleep func(d time.Duration, stop <-chan struct{}) bool

	// observePending, when non-nil, receives the number of dispatched-
	// but-uncollected scenarios after every dispatch and completion.
	// Tests use it to pin the O(workers) reorder-window bound.
	observePending func(int)
	// observeDispatch, when non-nil, receives each scenario's spec index
	// as it is handed to a worker. Tests use it to pin the cost-order
	// (LPT) dispatch, which wall clock cannot show on a one-core host.
	observeDispatch func(int)
	// onCancel, when non-nil, runs once immediately after the sweep is
	// cancelled (first error). Tests use it to sequence in-flight
	// workers deterministically against the cancellation.
	onCancel func()
}

// Run executes every scenario of spec and returns the results in spec
// order. On error it reports the failing scenario with the smallest spec
// index among those that failed before cancellation took effect.
func Run(spec Spec) (*ResultSet, error) { return Executor{}.Run(spec) }

// Run executes the sweep and gathers every result into a ResultSet —
// a thin wrapper over Collect with a ResultSetCollector, O(grid) memory.
// With Spec.Shard set the ResultSet holds only the shard's results (in
// spec order); axis indexing via At is then invalid.
func (e Executor) Run(spec Spec) (*ResultSet, error) {
	var c ResultSetCollector
	if err := e.Collect(spec, &c); err != nil {
		return nil, err
	}
	sp := spec
	return &ResultSet{Spec: &sp, Results: c.Results}, nil
}

// reorderWindow bounds how far dispatch may run ahead of in-order
// collection: the executor holds at most this many dispatched-but-
// uncollected scenarios (in flight + buffered completions), so memory
// for raw results is O(workers) with a small floor that keeps cost-order
// dispatch effective on little pools.
func reorderWindow(workers int) int {
	const floor = 32
	if w := 4 * workers; w > floor {
		return w
	}
	return floor
}

// indexedResult carries one completion from a worker back to the
// coordinator. pos indexes the shard's owned list, not the full grid.
type indexedResult struct {
	pos int
	res *Result
	err error
}

// Collect executes the sweep, streaming results into c in spec order.
// See the Executor doc comment for the ordering, sharing, sharding and
// memory guarantees.
func (e Executor) Collect(spec Spec, c Collector) error {
	sp := spec
	scenarios, err := sp.Expand()
	if err != nil {
		return err
	}
	if e.RequireStored && e.Store == nil {
		return fmt.Errorf("sweep: RequireStored without a store")
	}
	if e.StoreWait != nil && !e.RequireStored {
		return fmt.Errorf("sweep: StoreWait without RequireStored (waiting only makes sense for a store-only merge)")
	}
	// Canonical config hashes, precomputed once per sweep (the workload
	// content hash dominates and is shared by every scenario of an axis
	// value). An uncacheable spec bypasses the store; a duplicate-hash
	// grid is a real error even though Expand's structural check passed.
	var keys, wlKeys []string
	if e.Store != nil && sp.Cacheable() == nil {
		keys, wlKeys, err = sp.scenarioKeysFor(scenarios)
		if err != nil {
			return err
		}
	}
	// The shard's slice of the grid, in spec order. owned[pos] is a spec
	// index; collection order is ascending pos.
	owned := make([]int, 0, sp.Shard.SizeOf(len(scenarios)))
	for i := range scenarios {
		if sp.Shard.Owns(i) {
			owned = append(owned, i)
		}
	}
	if len(owned) == 0 {
		return nil
	}
	// A checkpointed resume: the first skip owned positions were fully
	// collected (and acknowledged by the store) in a previous attempt, so
	// this run starts past them — no probe, no dispatch, no collect.
	skip := e.ResumeSkip
	if skip < 0 {
		skip = 0
	}
	if skip > len(owned) {
		skip = len(owned)
	}
	if skip == len(owned) {
		return nil
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(owned)-skip {
		workers = len(owned) - skip
	}
	window := reorderWindow(workers)

	// Dispatch ranks, longest first. All-zero ranks (SpecOrderDispatch)
	// make nextDispatch pick in exact spec order.
	costs := make([]float64, len(owned))
	if !e.SpecOrderDispatch {
		for p := skip; p < len(owned); p++ {
			costs[p] = scenarioLoad(&scenarios[owned[p]])
		}
	}

	ideals := newIdealCache(&sp, e.Store, wlKeys)
	jobs := make(chan int)
	completions := make(chan indexedResult)
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One reusable runner per worker: every scenario this goroutine
			// simulates runs on the same warm memory (manager.Runner reuse
			// is byte-identical to a fresh run).
			runner := manager.NewRunner()
			for p := range jobs {
				i := owned[p]
				var key string
				if keys != nil {
					key = keys[i]
				}
				res, err := e.runStored(&sp, scenarios[i], ideals, runner, key, stop)
				completions <- indexedResult{pos: p, res: res, err: err}
			}
		}()
	}

	// Coordinator: single goroutine interleaving dispatch and in-order
	// collection. Invariant: every dispatched-but-uncollected position
	// lies in [collected, collected+window), so pending + in flight never
	// exceeds the reorder window.
	dispatched := make([]bool, len(owned))
	for p := 0; p < skip; p++ {
		dispatched[p] = true
	}
	var (
		nDispatched = skip
		inFlight    int
		collected   = skip
		pending     = make(map[int]*Result, window)
		cancelled   bool
		firstPos    = -1 // lowest owned position that failed
		firstErr    error
		collectErr  error
	)
	cancel := func() {
		if cancelled {
			return
		}
		cancelled = true
		close(stop)
		if e.onCancel != nil {
			e.onCancel()
		}
	}
	for collected < len(owned) {
		if cancelled && inFlight == 0 {
			break
		}
		pick := -1
		if !cancelled && nDispatched < len(owned) {
			pick = nextDispatch(costs, dispatched, collected, window)
		}
		jobsCh := jobs
		if pick < 0 {
			jobsCh = nil
		}
		select {
		case jobsCh <- pick:
			dispatched[pick] = true
			nDispatched++
			inFlight++
			if e.observeDispatch != nil {
				e.observeDispatch(owned[pick])
			}
			if e.observePending != nil {
				e.observePending(len(pending) + inFlight)
			}
		case done := <-completions:
			inFlight--
			if done.err != nil {
				// A collector error is always the cancellation's cause
				// (collection stops at the first scenario error, so the
				// two never both occur from one cancel) — scenario
				// errors straggling in afterwards must not displace it.
				// Likewise an error the cancellation caused never
				// displaces one that caused it, whatever their positions.
				if collectErr == nil && (firstPos < 0 || displaces(done.err, done.pos, firstErr, firstPos)) {
					firstPos, firstErr = done.pos, done.err
				}
				cancel()
				continue
			}
			if cancelled {
				continue // the sweep already failed; drop the result
			}
			pending[done.pos] = done.res
			if e.observePending != nil {
				e.observePending(len(pending) + inFlight)
			}
			for {
				res, ok := pending[collected]
				if !ok {
					break
				}
				delete(pending, collected)
				if err := c.Collect(res); err != nil {
					i := owned[collected]
					collectErr = fmt.Errorf("sweep: collect scenario %d (%s): %w", i, scenarios[i].Name(), err)
					cancel()
					break
				}
				collected++
			}
		}
	}
	// Both loop exits guarantee inFlight == 0: the cancelled exit checks
	// it explicitly, and full collection implies every dispatched
	// scenario was received — in-flight stragglers always drain through
	// the completions case above (never preempted; their results are
	// dropped and, post-cancel, never persisted).
	close(jobs)
	wg.Wait()

	if firstPos >= 0 {
		i := owned[firstPos]
		return fmt.Errorf("sweep: scenario %d (%s): %w", i, scenarios[i].Name(), firstErr)
	}
	return collectErr
}

// nextDispatch is the coordinator's window-and-pick step: the costliest
// undispatched owned position within the reorder window [collected,
// collected+window), ties to the lower position — with uniform costs, or
// SpecOrderDispatch, this degrades to exact spec order. It returns -1
// when every position in the window is already dispatched.
func nextDispatch(costs []float64, dispatched []bool, collected, window int) int {
	lim := collected + window
	if lim > len(costs) {
		lim = len(costs)
	}
	best := -1
	for p := collected; p < lim; p++ {
		if dispatched[p] {
			continue
		}
		if best < 0 || costs[p] > costs[best] {
			best = p
		}
	}
	return best
}

// errCancelled marks a scenario error that is a symptom of the sweep's
// cancellation rather than a cause of it.
var errCancelled = errors.New("sweep cancelled")

// displaces reports whether scenario error err at owned position pos
// should replace cur at curPos as the sweep's reported error: the lowest
// position wins, except that a cancellation symptom never displaces a
// root cause.
func displaces(err error, pos int, cur error, curPos int) bool {
	if c, cc := errors.Is(err, errCancelled), errors.Is(cur, errCancelled); c != cc {
		return cc
	}
	return pos < curPos
}

// scenarioLoad is a scenario's dispatch rank: workload length over unit
// count. Replacement decisions grow with the sequence and contention
// shrinks with the units. Per-policy weights do not earn a place: since
// the next-use index made LFD linear, every scenario of a 2000-app grid
// costs within a small factor of every other whatever its policy, and
// replays of recorded times (TestDispatchReplay, ARCHITECTURE.md §"Cost
// model") found load alone within noise of every richer ranking. A bad
// rank costs wall clock, never results.
func scenarioLoad(sc *Scenario) float64 {
	return float64(len(sc.Workload.Seq)) / float64(sc.RUs)
}

// runStored serves one scenario from the result store when possible and
// simulates (then writes back) otherwise. key is empty when the sweep
// runs without a store or the spec is uncacheable; stop is closed once
// the sweep has failed, after which nothing more is persisted.
func (e Executor) runStored(sp *Spec, sc Scenario, ideals *idealCache, runner *manager.Runner, key string, stop <-chan struct{}) (*Result, error) {
	if key != "" {
		if e.RequireStored && e.StoreWait != nil {
			return e.awaitStored(sp, sc, ideals, runner, key, stop)
		}
		if ent, ok := e.Store.Get(key); ok {
			if res, err := resultFromEntry(sp, sc, ent, ideals, runner); res != nil || err != nil {
				return res, err
			}
		}
		if e.RequireStored {
			return nil, fmt.Errorf("not in result store %s (did every shard run?)", e.Store.Dir())
		}
	}
	res, retry, err := e.runRetried(sp, sc, ideals, runner, stop)
	if err != nil || key == "" {
		return res, err
	}
	select {
	case <-stop:
		// The sweep has already failed: a worker that happened to finish
		// after cancellation must not persist its scenario — a failed
		// sweep leaves the store exactly as rich as it was when the
		// error struck, never silently part-populated beyond it.
		return res, nil
	default:
	}
	ent := &resultstore.Entry{
		Scenario:  sc.Name(),
		ElapsedNS: int64(res.Elapsed),
		Attempts:  retry.attempts,
		Run:       resultstore.RecordRun(res.Run),
		Summary:   res.Summary,
	}
	if retry.attempts > 1 {
		ent.LastError = retry.lastErr.Error()
		ent.RetriedAtNS = retry.retriedAt.UnixNano()
	}
	// A failed write (full disk, read-only store) must not lose the
	// computed sweep: the store degrades to re-simulation next run and
	// reports the failure in its summary line — but an unacknowledged
	// result must not advance a checkpoint either (see Checkpointer), so
	// only a successful Put marks the result stored.
	if e.Store.Put(key, ent) == nil {
		res.stored = true
	}
	return res, nil
}

// retryInfo is the attempt bookkeeping runRetried hands back for the
// store entry: how many executions the result took, and — past the
// first — the last retried failure and when the winning attempt began.
type retryInfo struct {
	attempts  int
	lastErr   error
	retriedAt time.Time
}

// maxRetryBackoff caps the exponential retry delay; past it only the
// jitter varies.
const maxRetryBackoff = 30 * time.Second

// runRetried executes one scenario live, retrying failures within the
// MaxScenarioRetries budget with jittered exponential backoff. On
// exhaustion the final error is wrapped with the attempt count (only
// when retries were actually configured, so the zero-budget path reads
// exactly as before).
func (e Executor) runRetried(sp *Spec, sc Scenario, ideals *idealCache, runner *manager.Runner, stop <-chan struct{}) (*Result, retryInfo, error) {
	info := retryInfo{attempts: 1}
	for {
		res, err := runScenario(sp, sc, ideals, runner)
		if err == nil {
			return res, info, nil
		}
		if info.attempts > e.MaxScenarioRetries {
			if e.MaxScenarioRetries > 0 {
				err = fmt.Errorf("after %d attempts: %w", info.attempts, err)
			}
			return nil, info, err
		}
		info.lastErr = err
		if !e.sleepBackoff(retryBackoff(e.RetryBackoff, info.attempts), stop) {
			return nil, info, fmt.Errorf("%w while backing off from: %w", errCancelled, err)
		}
		info.attempts++
		info.retriedAt = time.Now()
	}
}

// retryBackoff is the delay before the retry following failed attempt
// number `attempt` (1-based): the base doubled per prior failure, capped
// at maxRetryBackoff, then jittered uniformly over [d/2, 3d/2).
func retryBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepBackoff waits out one retry delay, aborting (false) if the sweep
// is cancelled meanwhile.
func (e Executor) sleepBackoff(d time.Duration, stop <-chan struct{}) bool {
	if e.retrySleep != nil {
		return e.retrySleep(d, stop)
	}
	select {
	case <-stop:
		return false
	case <-time.After(d):
		return true
	}
}

// StoreWait configures the watch-mode serve of a RequireStored sweep:
// how often to re-probe the store for a missing scenario and how to
// decide that no producer will ever store it.
type StoreWait struct {
	// Poll is the store re-probe interval; values ≤ 0 mean 200ms. Probes
	// go through Store.Probe — one file read per poll, a hit counted
	// only on the serve, never a miss for "not here yet" — so a watch
	// merge's digest reads exactly like a post-drain merge's.
	Poll time.Duration
	// Done reports whether the producers have finished. (false, nil)
	// keeps the executor waiting; (true, nil) means no further entries
	// will arrive, so a still-missing scenario becomes a hard error —
	// RequireStored's contract, deferred until the pool has had its say;
	// a non-nil error means the producers can never finish (a coordinator
	// pool dead past its lease TTL — see coord.(*Coordinator).Drained)
	// and fails the sweep instead of hanging it forever. Called
	// concurrently from the executor's workers; it must be safe for that.
	Done func() (bool, error)
}

// awaitStored serves one scenario from the store the moment a producer
// lands it, per the StoreWait contract above. stop aborts the wait when
// the sweep fails elsewhere.
func (e Executor) awaitStored(sp *Spec, sc Scenario, ideals *idealCache, runner *manager.Runner, key string, stop <-chan struct{}) (*Result, error) {
	poll := e.StoreWait.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	serve := func(ent *resultstore.Entry) (*Result, error) {
		if res, err := resultFromEntry(sp, sc, ent, ideals, runner); res != nil || err != nil {
			return res, err
		}
		return nil, fmt.Errorf("entry in result store %s lacks a part this sweep needs (damaged store?)", e.Store.Dir())
	}
	for {
		if ent, ok := e.Store.Probe(key); ok {
			return serve(ent)
		}
		done, err := e.StoreWait.Done()
		if err != nil {
			return nil, err
		}
		if done {
			// The pool may have stored the entry between our probe and
			// its done record: one last look before declaring it missing.
			if ent, ok := e.Store.Probe(key); ok {
				return serve(ent)
			}
			return nil, fmt.Errorf("not in result store %s after the pool drained (did its workers run the same grid?)", e.Store.Dir())
		}
		select {
		case <-stop:
			return nil, fmt.Errorf("%w while waiting for the store", errCancelled)
		case <-time.After(poll):
		}
	}
}

// resultFromEntry rebuilds a scenario result from a store entry and the
// ideal cache (which re-simulates a missing baseline on runner), or
// returns nil when the entry lacks its summary (only possible for a
// hand-damaged store — the baseline flag is part of the key).
func resultFromEntry(sp *Spec, sc Scenario, ent *resultstore.Entry, ideals *idealCache, runner *manager.Runner) (*Result, error) {
	res := &Result{Scenario: sc, Run: ent.Run.Result(), stored: true}
	if sp.NoBaseline {
		return res, nil
	}
	if ent.Summary == nil {
		return nil, nil
	}
	ideal, err := ideals.get(sc.WorkloadIdx, sc.RUs, runner)
	if err != nil {
		return nil, fmt.Errorf("ideal baseline: %w", err)
	}
	res.Ideal, res.Summary = ideal, ent.Summary
	return res, nil
}

// runScenario simulates one scenario on the worker's reusable runner:
// fresh policy instance, shared mobility tables, shared ideal baseline,
// summary.
func runScenario(sp *Spec, sc Scenario, ideals *idealCache, runner *manager.Runner) (*Result, error) {
	pol, err := sc.Policy.New()
	if err != nil {
		return nil, err
	}
	cfg := manager.Config{
		RUs:                  sc.RUs,
		Latency:              sc.Latency,
		LatencyFor:           sp.LatencyFor,
		Policy:               pol,
		SkipEvents:           sc.Policy.Skip,
		CrossGraphPrefetch:   sc.Policy.CrossGraphPrefetch,
		ConservativePrefetch: sc.Policy.ConservativePrefetch,
		RecordTrace:          sp.RecordTrace,
	}
	if sc.Policy.Skip {
		lookup, _, err := mobility.CachedAll(sc.Workload.templates(), sc.RUs, sc.Latency)
		if err != nil {
			return nil, fmt.Errorf("design-time phase: %w", err)
		}
		cfg.Mobility = lookup
	}
	// Only the scenario's own simulation is timed: the ideal baseline and
	// the design-time mobility tables are shared across the sweep, so
	// folding their one-off cost into whichever scenario happened to pay
	// it would skew the recorded per-scenario times.
	start := time.Now()
	run, err := runner.Run(cfg, dynlist.NewSequence(sc.Workload.Seq...))
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, Elapsed: time.Since(start), Run: run}
	if sp.NoBaseline {
		return res, nil
	}
	// The run's snapshot is taken, so the runner is free to simulate the
	// ideal baseline should this scenario be the first to need it.
	ideal, err := ideals.get(sc.WorkloadIdx, sc.RUs, runner)
	if err != nil {
		return nil, fmt.Errorf("ideal baseline: %w", err)
	}
	sum, err := metrics.Summarize(sc.Policy.Name, sc.RUs, sc.Latency, run, ideal)
	if err != nil {
		return nil, err
	}
	res.Ideal = ideal
	res.Summary = sum
	return res, nil
}

// templates returns the workload's template pool, deriving the distinct
// templates of Seq when Pool was not given.
func (w *Workload) templates() []*taskgraph.Graph {
	if len(w.Pool) > 0 {
		return w.Pool
	}
	seen := make(map[*taskgraph.Graph]bool, 4)
	var out []*taskgraph.Graph
	for _, g := range w.Seq {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// idealKey derives the store key of the ideal baseline of (workload
// content key, RUs). The kind tag is folded in first for domain
// separation from scenario keys and other artifacts; latency and policy
// are not inputs, because every ideal runs at zero latency under LRU.
func idealKey(wlKey string, rus int) string {
	h := resultstore.NewHash()
	h.String("artifact", resultstore.IdealKind)
	h.String("workload", wlKey)
	h.Int("rus", int64(rus))
	return h.Sum()
}

// idealCache serves the zero-latency baselines shared by every scenario
// of one (workload, RUs) pair, from two tiers. The first is this
// executor's single-flight map, so concurrent scenarios wait for one
// computation. The second, with a store and workload keys (a cacheable
// spec), is the store's artifact space: every executor over one store —
// each shard and each experiment of a campaign, in any process — then
// simulates a given baseline once per store, not once per sweep. Store
// hits read it here too: the artifact is the baseline's only copy.
//
// The baseline runs the LRU policy, exactly as the paper's figures do.
// At zero latency the timing does not depend on the policy (pinned by
// internal/manager's TestIdealTimingIndependentOfPolicy), so one LRU
// baseline serves every policy's Summary. A baseline served from the
// store carries no Templates; nothing reads them.
type idealCache struct {
	sp     *Spec
	store  *resultstore.Store
	wlKeys []string // nil: no store tier
	mu     sync.Mutex
	m      map[idealID]*idealEntry
}

type idealID struct {
	workload int
	rus      int
}

type idealEntry struct {
	done chan struct{}
	res  *manager.Result
	err  error
}

func newIdealCache(sp *Spec, store *resultstore.Store, wlKeys []string) *idealCache {
	return &idealCache{sp: sp, store: store, wlKeys: wlKeys, m: make(map[idealID]*idealEntry)}
}

// get returns the baseline of (workload, rus). The caller that finds it
// in neither tier simulates it on runner, which must be idle.
func (c *idealCache) get(workload, rus int, runner *manager.Runner) (*manager.Result, error) {
	id := idealID{workload: workload, rus: rus}
	c.mu.Lock()
	e, ok := c.m[id]
	if !ok {
		e = &idealEntry{done: make(chan struct{})}
		c.m[id] = e
		c.mu.Unlock()
		e.res, e.err = c.load(workload, rus, runner)
		close(e.done)
		return e.res, e.err
	}
	c.mu.Unlock()
	<-e.done
	return e.res, e.err
}

// load serves the baseline from the store, or simulates it and writes it
// back. A stored payload that does not decode, or does not cover the
// workload's every application, is a miss: it is re-simulated and
// overwritten in place.
func (c *idealCache) load(workload, rus int, runner *manager.Runner) (*manager.Result, error) {
	seq := c.sp.Workloads[workload].Seq
	var key string
	if c.wlKeys != nil {
		key = idealKey(c.wlKeys[workload], rus)
		if a, ok := c.store.GetArtifact(key, resultstore.IdealKind, resultstore.SchemaVersion); ok {
			var run resultstore.Run
			if json.Unmarshal(a.Payload, &run) == nil && run.Graphs == len(seq) && len(run.Completions) == len(seq) {
				return run.Result(), nil
			}
		}
	}
	res, err := runner.Run(manager.Config{
		RUs: rus, Latency: 0, Policy: policy.NewLRU(),
	}, dynlist.NewSequence(seq...))
	if err != nil || key == "" {
		return res, err
	}
	if payload, err := json.Marshal(resultstore.RecordRun(res)); err == nil {
		// A failed write costs the next executor a re-simulation, never
		// this result; the store counts it in SummaryLine.
		_ = c.store.PutArtifact(key, &resultstore.Artifact{
			Kind:        resultstore.IdealKind,
			KindVersion: resultstore.SchemaVersion,
			Label:       fmt.Sprintf("ideal %s rus=%d", c.sp.Workloads[workload].Label, rus),
			Payload:     payload,
		})
	}
	return res, nil
}
