package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/resultstore"
	"repro/internal/taskgraph"
)

// Executor runs the scenarios of a Spec on a bounded worker pool and
// streams the results, in spec order, into a Collector.
//
// Results are collected in spec order regardless of completion order, and
// every shared input is computed once: the design-time mobility tables
// per (template, RUs, latency) through the process-wide mobility cache,
// and the zero-latency ideal baseline per (workload, RUs) per sweep,
// never stored. Applications run in sequence, and at zero latency with
// no prefetch each one's run time depends only on its template, so
// manager.Runner.Ideal times each distinct template alone and chains the
// applications by a recurrence. The first scenario error cancels the
// remaining work.
//
// Scenarios are dispatched to the pool in spec order, the order they are
// collected in. Dispatch runs at most a bounded reorder window ahead of
// collection, so a sweep never buffers more than O(workers) completed
// results — the property that lets SummaryCollector sweeps run grids far
// larger than memory would hold as ResultSets. No store read precedes
// dispatch, so a fully warm sweep reads each entry exactly once, to
// serve it. TestDispatchReplay replays recorded scenario times through
// this window and pins how close it comes to the best possible makespan;
// ARCHITECTURE.md §"Dispatch order" records why no ranking beat it.
//
// With a Store attached, every scenario's canonical config hash is looked
// up before it runs: hits are served from disk (the scenario is not
// simulated again) and misses are written back on completion — unless
// the sweep has already failed, in which case no further entries are
// persisted (a cancelled sweep must never silently populate the store
// with the scenarios that happened to finish). Stored results carry the
// exact counters and summary of a live run — the summary includes the
// per-application delay digest — so a warm sweep is byte-identical in
// every report to a cold one. Every collector receives a hit the same
// way: the run's counters and the stored summary, computing no ideal
// baseline. Run.Completions, Run.Trace and Ideal are live-only (see
// Result). Specs the store cannot identify canonically (see
// Spec.Cacheable) bypass it transparently.
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

	// resumeSkip treats the first N owned positions as already collected
	// (loaded from a Checkpoint): they are neither probed, dispatched,
	// nor delivered to the collector. Only CollectResumable sets it,
	// clamped to [0, owned positions], pairing the skip with the
	// checkpoint bookkeeping that makes it safe for a collector that does
	// not need the skipped results.
	resumeSkip int
	// observePending, when non-nil, receives the number of dispatched-
	// but-uncollected scenarios after every dispatch and completion.
	// Tests use it to pin the O(workers) reorder-window bound.
	observePending func(int)
	// observeDispatch, when non-nil, receives each scenario's spec index
	// as it is handed to a worker. Tests use it to pin which scenarios a
	// sweep dispatches, and in what order.
	observeDispatch func(int)
	// onCancel, when non-nil, runs once immediately after the sweep is
	// cancelled (first error). Tests use it to sequence in-flight
	// workers deterministically against the cancellation.
	onCancel func()
	// observeIdeal, when non-nil, is called once per ideal baseline the
	// sweep computes. Tests use it to pin which serves compute none.
	observeIdeal func()
	// observeArrivals, when non-nil, receives the arrivals handed to each
	// simulation, scenario or ideal baseline, with the workload's index.
	// Tests use it to pin that one slice serves a whole workload.
	observeArrivals func(workload int, arrivals []dynlist.Item)
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
// for raw results is O(workers). The floor lets a little pool's fast
// workers run on past a slow scenario at the head of the window.
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
	var keys []string
	if e.Store != nil && sp.Cacheable() == nil {
		keys, err = sp.scenarioKeysFor(scenarios)
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
	skip := e.resumeSkip
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

	arrivals := newArrivalCache(&sp, e.observeArrivals)
	ideals := &idealCache{arrivals: arrivals, m: make(map[idealID]*idealEntry), observe: e.observeIdeal}
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
				res, err := e.runStored(&sp, scenarios[i], arrivals, ideals, runner, key, stop)
				completions <- indexedResult{pos: p, res: res, err: err}
			}
		}()
	}

	// Coordinator: single goroutine interleaving dispatch and in-order
	// collection. Positions are dispatched in order, so the dispatched-
	// but-uncollected ones are [collected, nDispatched), and dispatch
	// waits while that span fills the reorder window.
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
		jobsCh := jobs
		if cancelled || nDispatched == len(owned) || nDispatched >= collected+window {
			jobsCh = nil
		}
		select {
		case jobsCh <- nDispatched:
			if e.observeDispatch != nil {
				e.observeDispatch(owned[nDispatched])
			}
			nDispatched++
			inFlight++
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

// runStored serves one scenario from the result store when possible and
// simulates (then writes back) otherwise. key is empty when the sweep
// runs without a store or the spec is uncacheable; stop is closed once
// the sweep has failed, after which nothing more is persisted.
func (e Executor) runStored(sp *Spec, sc Scenario, arrivals *arrivalCache, ideals *idealCache, runner *manager.Runner, key string, stop <-chan struct{}) (*Result, error) {
	if key != "" {
		if e.RequireStored && e.StoreWait != nil {
			return e.awaitStored(sp, sc, key, stop)
		}
		if ent, ok := e.Store.Get(key); ok {
			if res := resultFromEntry(sp, sc, ent); res != nil {
				return res, nil
			}
		}
		if e.RequireStored {
			return nil, fmt.Errorf("not in result store %s (did every shard run?)", e.Store.Dir())
		}
	}
	res, err := runScenario(sp, sc, arrivals, ideals, runner)
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
		Run:       resultstore.RecordRun(res.Run),
		Summary:   res.Summary,
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
	// pool silent for twice its lease TTL — see coord.(*Coordinator).Drained)
	// and fails the sweep instead of hanging it forever. Called
	// concurrently from the executor's workers; it must be safe for that.
	Done func() (bool, error)
}

// awaitStored serves one scenario from the store the moment a producer
// lands it, per the StoreWait contract above. stop aborts the wait when
// the sweep fails elsewhere.
func (e Executor) awaitStored(sp *Spec, sc Scenario, key string, stop <-chan struct{}) (*Result, error) {
	poll := e.StoreWait.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	serve := func(ent *resultstore.Entry) (*Result, error) {
		if res := resultFromEntry(sp, sc, ent); res != nil {
			return res, nil
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

// resultFromEntry rebuilds a scenario result from a store entry: the
// run's counters and the stored summary. It returns nil when the entry
// lacks its summary (only possible for a hand-damaged store — the
// baseline flag is part of the key).
func resultFromEntry(sp *Spec, sc Scenario, ent *resultstore.Entry) *Result {
	res := &Result{Scenario: sc, Run: ent.Run.Result(), stored: true}
	if sp.NoBaseline {
		return res
	}
	if ent.Summary == nil {
		return nil
	}
	res.Summary = ent.Summary
	return res
}

// runScenario simulates one scenario on the worker's reusable runner:
// fresh policy instance, shared arrivals, shared mobility tables, shared
// ideal baseline, summary.
func runScenario(sp *Spec, sc Scenario, arrivals *arrivalCache, ideals *idealCache, runner *manager.Runner) (*Result, error) {
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
	run, err := runner.Run(cfg, arrivals.get(sc.WorkloadIdx))
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, Elapsed: time.Since(start), Run: run}
	if sp.NoBaseline {
		return res, nil
	}
	// The run's snapshot is taken, so the runner is free to compute the
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

// feed builds the workload's arrivals: Seq in order, at the Arrivals
// times or all at time zero.
func (w *Workload) feed() []dynlist.Item {
	items := dynlist.NewSequence(w.Seq...)
	for i := range w.Arrivals {
		items[i].Arrival = w.Arrivals[i]
	}
	return items
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

// arrivalCache builds each workload's arrivals once per Collect, on first
// use. manager.Runner only reads its arrivals, so every scenario of a
// workload and its ideal baselines share one slice, concurrent runs
// included; the slices are dropped with the Collect.
type arrivalCache struct {
	sp      *Spec
	once    []sync.Once
	items   [][]dynlist.Item
	observe func(workload int, arrivals []dynlist.Item) // Executor.observeArrivals
}

func newArrivalCache(sp *Spec, observe func(int, []dynlist.Item)) *arrivalCache {
	n := len(sp.Workloads)
	return &arrivalCache{sp: sp, once: make([]sync.Once, n), items: make([][]dynlist.Item, n), observe: observe}
}

// get returns workload w's arrivals, building them on the first call.
func (c *arrivalCache) get(w int) []dynlist.Item {
	c.once[w].Do(func() { c.items[w] = c.sp.Workloads[w].feed() })
	if c.observe != nil {
		c.observe(w, c.items[w])
	}
	return c.items[w]
}

// idealCache serves the zero-latency baselines shared by every scenario
// of one (workload, RUs) pair: a single-flight map, so concurrent
// scenarios wait for one manager.Runner.Ideal computation and share its
// result. At zero latency the timing does not depend on the policy
// (internal/manager's TestIdealTimingIndependentOfPolicy), so one
// baseline serves every policy's Summary.
type idealCache struct {
	arrivals *arrivalCache
	mu       sync.Mutex
	m        map[idealID]*idealEntry
	observe  func() // Executor.observeIdeal
}

type idealID struct {
	workload int
	rus      int
}

type idealEntry struct {
	once sync.Once
	res  *manager.Result
	err  error
}

// get returns the baseline of (workload, rus). The first caller computes
// it on runner, which must be idle; the others wait for it.
func (c *idealCache) get(workload, rus int, runner *manager.Runner) (*manager.Result, error) {
	id := idealID{workload: workload, rus: rus}
	c.mu.Lock()
	e, ok := c.m[id]
	if !ok {
		e = new(idealEntry)
		c.m[id] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if c.observe != nil {
			c.observe()
		}
		e.res, e.err = runner.Ideal(rus, c.arrivals.get(workload))
	})
	return e.res, e.err
}
