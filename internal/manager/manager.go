// Package manager implements the paper's task-graph execution manager
// (Fig. 4) with the replacement module (Fig. 8) plugged into it.
//
// The manager is event-triggered. Three events drive it, exactly as in the
// paper: new_task_graph (an application arrives in the Dynamic List),
// end_of_reconfiguration (the circuitry finished a load — reuse of an
// already-resident configuration is the zero-latency special case), and
// end_of_execution (a task finished running). After each event the manager
// "settles": it starts the next application if none is running, starts
// every task whose configuration is resident and whose predecessors have
// finished, and — when the reconfiguration circuitry is idle — asks the
// replacement module to handle the next entry of the running graph's
// reconfiguration sequence.
//
// The replacement module follows Fig. 8: it reuses a resident
// configuration when possible, otherwise picks a victim with the
// configured policy; if skip-events is enabled, the victim is reusable
// within the policy's lookahead and the task's mobility exceeds the
// events already skipped for this graph, the load is postponed until the
// next event.
//
// Semantics that the paper leaves implicit were reverse-engineered from
// its worked figures and are locked in by golden tests (see DESIGN.md §2):
// applications execute strictly sequentially (the loads of graph k+1 begin
// when graph k completes); eviction candidates are units that are neither
// executing nor holding a configuration still awaiting execution in the
// running graph; and a postponed load waits for the next simulator event.
//
// The steady-state event loop is allocation-free: a Runner owns every
// piece of per-run state (engine queue, unit array, instance bookkeeping,
// next-use index and candidate buffer) and reuses it across runs, so a sweep
// worker simulates its whole slice of the grid on warm memory. See
// ARCHITECTURE.md §"The hot loop" for the design and its invariant —
// reuse never changes simulation output.
package manager

import (
	"fmt"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/ru"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// Config parametrizes a run.
type Config struct {
	// RUs is the number of reconfigurable units (≥1).
	RUs int
	// Latency is the reconfiguration latency (0 is allowed and yields the
	// ideal schedule used as the overhead baseline).
	Latency simtime.Time
	// LatencyFor, when non-nil, supplies a per-task latency (e.g. derived
	// from per-task bitstream sizes), overriding Latency. Values must be
	// non-negative. The paper assumes a uniform latency; this is the
	// natural extension for heterogeneous configurations.
	LatencyFor func(taskgraph.TaskID) simtime.Time
	// Policy selects replacement victims. Its Window() governs how much of
	// the future the manager lets it see.
	Policy policy.Policy
	// SkipEvents enables the run-time skip mechanism of Fig. 8. It needs
	// Mobility to be useful; with all-zero mobilities it never fires.
	SkipEvents bool
	// Mobility returns the per-local-index mobility values for a graph
	// (as computed by internal/mobility at design time). nil means all
	// zeros everywhere.
	Mobility func(*taskgraph.Graph) []int
	// DelayPlan forces the load of given tasks (by local index) to be
	// postponed a fixed number of events. It applies to every instance
	// and exists for the design-time mobility calculation (Fig. 6);
	// normal runs leave it nil.
	DelayPlan map[int]int
	// CrossGraphPrefetch extends the paper's manager: once the running
	// graph's reconfiguration sequence is exhausted, the idle circuitry
	// starts loading the next enqueued graph's configurations (and pins
	// the ones already resident). The paper's manager only prefetches
	// within the running graph; this is the natural next step and is
	// evaluated as an extension experiment.
	CrossGraphPrefetch bool
	// ConservativePrefetch tempers CrossGraphPrefetch to preserve reuse:
	// preloads only ever displace configurations the policy's lookahead
	// does not expect to be reused; when every candidate is reusable,
	// the preload waits. Greedy prefetch trades reuse (and therefore
	// reconfiguration energy) for hiding; the conservative variant keeps
	// the reuse. Only meaningful together with CrossGraphPrefetch and a
	// window that reaches past the graph being preloaded.
	ConservativePrefetch bool
	// RecordTrace enables full trace recording (loads, execs, skips).
	RecordTrace bool
	// MaxEvents aborts pathological runs; 0 means a generous default.
	MaxEvents uint64
}

const defaultMaxEvents = 50_000_000

// Result summarizes a completed run.
type Result struct {
	// Makespan is the completion time of the last task.
	Makespan simtime.Time
	// Executed counts task executions; Reused counts those that found
	// their configuration already resident. Loads counts actual
	// reconfigurations; Evictions counts loads that displaced a resident
	// configuration.
	Executed  int
	Reused    int
	Loads     int
	Evictions int
	// Skips counts run-time skip-events decisions; ForcedSkips counts
	// DelayPlan postponements (mobility calculation only). Preloads
	// counts cross-graph prefetch loads (extension).
	Skips       int
	ForcedSkips int
	Preloads    int
	// Graphs is the number of application instances completed, and
	// Completions their completion times in instance order.
	Graphs      int
	Completions []simtime.Time
	// Events is the number of simulator events processed.
	Events uint64
	// Trace is the full record when Config.RecordTrace was set.
	Trace *trace.Trace
	// Templates holds each instance's graph template, indexed by instance
	// number (for trace validation and reporting).
	Templates []*taskgraph.Graph
}

// taskState tracks one task of the running instance.
type taskState int8

const (
	stateNotLoaded taskState = iota // not yet consumed from the sequence
	stateLoading                    // reconfiguration in flight
	stateReady                      // resident, waiting for predecessors
	stateExecuting
	stateDone
)

// instance is the running application.
type instance struct {
	item      dynlist.Item
	g         *taskgraph.Graph
	rec       []int // local-index reconfiguration sequence
	recPos    int   // next entry to handle
	state     []taskState
	predsLeft []int
	ruOf      []int // unit holding each task while Ready/Executing
	execStart []simtime.Time
	reused    []bool
	doneCount int
	started   simtime.Time
	skipped   int   // skipped_events counter (Fig. 8), reset per graph
	delayLeft []int // remaining forced postponements per local index
	mobility  []int
}

// taskSet is an array-backed set of TaskIDs with O(1) epoch-based reset:
// a member is an entry stamped with the current epoch, so clearing the set
// between runs is a counter increment rather than an O(maxID) wipe, and a
// membership test is one bounds-checked load instead of a map probe.
type taskSet struct {
	mark  []uint32
	epoch uint32
}

func (s *taskSet) reset(maxID taskgraph.TaskID) {
	if n := int(maxID) + 1; n > len(s.mark) {
		s.mark = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // epoch counter wrapped: wipe the stale stamps once
		clear(s.mark)
		s.epoch = 1
	}
}

func (s *taskSet) add(id taskgraph.TaskID)      { s.mark[id] = s.epoch }
func (s *taskSet) remove(id taskgraph.TaskID)   { s.mark[id] = 0 }
func (s *taskSet) has(id taskgraph.TaskID) bool { return s.mark[id] == s.epoch }

// resize returns s with exactly n zeroed elements, reusing the backing
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// Runner is a reusable simulation runner. One Runner executes any number
// of runs sequentially, recycling every internal structure — event queue,
// unit array, instance bookkeeping, next-use index, candidate buffer — so
// that after the first run the event loop allocates nothing. Reuse is
// observationally invisible: a reused Runner produces byte-identical
// results to a fresh one (property-tested). A Runner is not safe for
// concurrent use; give each goroutine its own.
type Runner struct {
	cfg    Config
	engine sim.Engine
	units  *ru.Array
	recon  *ru.Reconfigurator

	arrivals []dynlist.Item
	arrived  int // arrivals already pushed into the DL
	dl       dynlist.List
	inst     instance // pooled storage for the running application
	cur      *instance

	protected taskSet
	skipArmed bool

	// Cross-graph prefetch state: the instance being preloaded, the
	// position reached in its reconfiguration sequence, the units its
	// completed preloads landed on (parallel id/unit slices, in completion
	// order), and the task of an in-flight preload.
	preloadFor      int
	preloadPos      int
	preloadDoneIDs  []taskgraph.TaskID
	preloadDoneRUs  []int
	preloadInFlight taskgraph.TaskID

	fut     future
	candbuf []policy.Candidate

	res Result
	tr  *trace.Trace
}

// NewRunner returns an empty Runner, ready for its first Run.
func NewRunner() *Runner { return &Runner{preloadFor: -1} }

// Run executes every application produced by feed under cfg and returns
// the aggregated result. It is shorthand for NewRunner().Run — callers
// running many simulations should hold on to one Runner instead.
func Run(cfg Config, feed dynlist.Feed) (*Result, error) {
	return NewRunner().Run(cfg, feed)
}

// Run executes every application produced by feed under cfg and returns
// the aggregated result. The Runner's state is fully re-initialized
// first, so runs are independent regardless of what ran before.
func (r *Runner) Run(cfg Config, feed dynlist.Feed) (*Result, error) {
	if err := r.Reset(cfg); err != nil {
		return nil, err
	}
	if err := r.start(feed); err != nil {
		return nil, err
	}
	if err := r.loop(); err != nil {
		return nil, err
	}
	return r.snapshot(), nil
}

// Reset validates cfg and rewinds the Runner to a pristine state for a
// new run, reusing the memory of previous runs. It also rewinds stateful
// policies (policy.Resetter) so a reused policy instance replays its
// original decision stream.
func (r *Runner) Reset(cfg Config) error {
	if cfg.RUs < 1 {
		return fmt.Errorf("manager: need at least 1 reconfigurable unit, got %d", cfg.RUs)
	}
	if cfg.Policy == nil {
		return fmt.Errorf("manager: no replacement policy configured")
	}
	if cfg.Latency < 0 {
		return fmt.Errorf("manager: negative latency %v", cfg.Latency)
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = defaultMaxEvents
	}
	if r.units == nil {
		units, err := ru.NewArray(cfg.RUs)
		if err != nil {
			return err
		}
		r.units = units
	} else if err := r.units.Reset(cfg.RUs); err != nil {
		return err
	}
	if r.recon == nil {
		recon, err := ru.NewReconfigurator(cfg.Latency)
		if err != nil {
			return err
		}
		r.recon = recon
	} else if err := r.recon.Reset(cfg.Latency); err != nil {
		return err
	}
	policy.Reset(cfg.Policy)
	r.cfg = cfg
	r.arrivals = r.arrivals[:0]
	r.arrived = 0
	r.dl.Reset()
	r.cur = nil
	r.skipArmed = false
	r.preloadFor = -1
	r.preloadPos = 0
	r.preloadDoneIDs = r.preloadDoneIDs[:0]
	r.preloadDoneRUs = r.preloadDoneRUs[:0]
	r.preloadInFlight = taskgraph.NoTask
	// Counters restart at zero; the result's slice buffers are kept.
	comps, tmpls := r.res.Completions[:0], r.res.Templates[:0]
	r.res = Result{Completions: comps, Templates: tmpls}
	r.tr = nil
	if cfg.RecordTrace {
		r.tr = &trace.Trace{
			RUs:           cfg.RUs,
			Latency:       cfg.Latency,
			Heterogeneous: cfg.LatencyFor != nil,
		}
		r.res.Trace = r.tr
	}
	return nil
}

// start drains the feed, pre-sizes every per-run structure from the
// workload's shape, indexes the future (for a policy that sees one) and
// schedules the first arrival.
//
// The feed is drained up front, but arrivals enter the event queue one at
// a time: popping arrival i schedules arrival i+1. Arrival times never
// decrease and new_task_graph sorts last at equal times, so the pop order
// is that of queueing them all, while the queue holds only the events in
// flight — one per unit, one load and the next arrival. The next-use
// index relies on the arrival order being the instance order — the
// Dynamic List window is then a contiguous run of instances — so a feed
// that numbers its items out of order or goes back in time is rejected.
func (r *Runner) start(feed dynlist.Feed) error {
	for {
		it, ok := feed.Next()
		if !ok {
			break
		}
		r.arrivals = append(r.arrivals, it)
	}
	var maxID taskgraph.TaskID
	tasks := 0
	for i, it := range r.arrivals {
		if it.Graph == nil {
			return fmt.Errorf("manager: arrival %d has nil graph", i)
		}
		if it.Instance != i {
			return fmt.Errorf("manager: arrival %d carries instance number %d", i, it.Instance)
		}
		if i > 0 && it.Arrival < r.arrivals[i-1].Arrival {
			return fmt.Errorf("manager: arrival %d at %v precedes arrival %d at %v",
				i, it.Arrival, i-1, r.arrivals[i-1].Arrival)
		}
		if id := it.Graph.MaxTaskID(); id > maxID {
			maxID = id
		}
		tasks += it.Graph.NumTasks()
	}
	r.protected.reset(maxID)
	if r.cfg.Policy.Window() != policy.WindowNone {
		r.fut.build(r.arrivals, maxID)
	}
	if cap(r.res.Completions) < len(r.arrivals) {
		r.res.Completions = make([]simtime.Time, 0, len(r.arrivals))
	}
	r.res.Templates = resize(r.res.Templates, len(r.arrivals))
	r.engine.Reset(r.cfg.RUs + 2)
	if len(r.arrivals) > 0 {
		r.engine.ScheduleArrival(r.arrivals[0].Arrival, 0)
	}
	if r.tr != nil {
		// Pre-size the trace from the workload shape: at most one load and
		// exactly one exec per task occurrence, one record per instance.
		r.tr.Loads = make([]trace.Load, 0, tasks)
		r.tr.Execs = make([]trace.Exec, 0, tasks)
		r.tr.Graphs = make([]trace.Graph, 0, len(r.arrivals))
	}
	return nil
}

// snapshot copies the run's outcome out of the Runner's reusable buffers.
// Callers retain Results long after the Runner has moved on (a sweep's
// reorder window holds them across later runs), so every escaping slice
// is freshly owned; the trace is already per-run.
func (r *Runner) snapshot() *Result {
	out := new(Result)
	*out = r.res
	out.Completions = append([]simtime.Time(nil), r.res.Completions...)
	out.Templates = append([]*taskgraph.Graph(nil), r.res.Templates...)
	return out
}

// loop is the event loop: step until the queue drains.
func (r *Runner) loop() error {
	for {
		if more, err := r.step(); !more || err != nil {
			return err
		}
	}
}

// step pops one event, handles it and settles. It reports false once the
// queue is empty, with an error if work is still pending then.
func (r *Runner) step() (bool, error) {
	ev, ok := r.engine.Pop()
	if !ok {
		if r.cur != nil || r.dl.Len() > 0 {
			return false, fmt.Errorf("manager: simulation stalled at %v with work pending (running=%v, queued=%d)",
				r.engine.Now(), r.cur != nil, r.dl.Len())
		}
		return false, nil
	}
	if r.engine.Popped() > r.cfg.MaxEvents {
		return false, fmt.Errorf("manager: exceeded %d events at %v — runaway simulation",
			r.cfg.MaxEvents, r.engine.Now())
	}
	r.res.Events = r.engine.Popped()
	// A new event is the moment a postponed load waits for.
	r.skipArmed = false
	switch ev.Kind {
	case sim.NewTaskGraph:
		r.dl.Push(r.arrivals[ev.Arg])
		r.arrived++
		if r.arrived < len(r.arrivals) {
			r.engine.ScheduleArrival(r.arrivals[r.arrived].Arrival, r.arrived)
		}
	case sim.EndOfReconfiguration:
		r.handleEndOfReconfiguration()
	case sim.EndOfExecution:
		r.handleEndOfExecution(ev)
	}
	return true, r.settle()
}

func (r *Runner) handleEndOfReconfiguration() {
	task, unit := r.recon.Finish()
	if task == r.preloadInFlight && task != taskgraph.NoTask {
		// A cross-graph preload completed before its instance started.
		r.preloadDoneIDs = append(r.preloadDoneIDs, task)
		r.preloadDoneRUs = append(r.preloadDoneRUs, unit)
		r.preloadInFlight = taskgraph.NoTask
		return
	}
	local := r.cur.g.IndexOf(task)
	if local < 0 || r.cur.state[local] != stateLoading {
		panic(fmt.Sprintf("manager: end_of_reconfiguration for unexpected task %d", task))
	}
	r.cur.state[local] = stateReady
	r.cur.ruOf[local] = unit
}

func (r *Runner) handleEndOfExecution(ev sim.Event) {
	now := r.engine.Now()
	r.units.FinishExecution(ev.RU, now)
	local := r.cur.g.IndexOf(ev.Task)
	if local < 0 || r.cur.state[local] != stateExecuting {
		panic(fmt.Sprintf("manager: end_of_execution for unexpected task %d", ev.Task))
	}
	r.cur.state[local] = stateDone
	r.cur.doneCount++
	r.protected.remove(ev.Task)
	r.res.Executed++
	if r.cur.reused[local] {
		r.res.Reused++
	}
	if r.tr != nil {
		r.tr.Execs = append(r.tr.Execs, trace.Exec{
			Task: ev.Task, RU: ev.RU,
			Start: r.cur.execStart[local], End: now,
			Reused: r.cur.reused[local], Instance: r.cur.item.Instance,
		})
	}
	for _, s := range r.cur.g.Succs(local) {
		r.cur.predsLeft[s]--
	}
	if r.cur.doneCount == r.cur.g.NumTasks() {
		r.finishInstance(now)
	}
}

func (r *Runner) finishInstance(now simtime.Time) {
	r.res.Graphs++
	r.res.Completions = append(r.res.Completions, now)
	if now.After(r.res.Makespan) {
		r.res.Makespan = now
	}
	if r.tr != nil {
		r.tr.Graphs = append(r.tr.Graphs, trace.Graph{
			Name:     r.cur.g.Name(),
			Instance: r.cur.item.Instance,
			Arrived:  r.cur.item.Arrival,
			Started:  r.cur.started,
			Finished: now,
		})
	}
	r.cur = nil
}

// settle repeatedly applies every enabled action until none makes
// progress: start the next application, start ready executions, and drive
// the replacement module.
func (r *Runner) settle() error {
	for {
		progress := false
		if r.cur == nil {
			if it, ok := r.dl.PopFront(); ok {
				r.startInstance(it)
				progress = true
			}
		}
		if r.cur != nil && r.startReadyExecutions() {
			progress = true
		}
		if r.cur != nil && r.cur.recPos < len(r.cur.rec) && r.recon.Idle() && !r.skipArmed {
			if r.replacementModule() {
				progress = true
			}
		}
		if r.cfg.CrossGraphPrefetch && r.cur != nil && r.cur.recPos == len(r.cur.rec) &&
			r.recon.Idle() && r.dl.Len() > 0 {
			if r.preloadStep() {
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
}

func (r *Runner) startInstance(it dynlist.Item) {
	g := it.Graph
	n := g.NumTasks()
	// The pooled instance storage is recycled: each slice is resliced and
	// zeroed in place, so after the first few graphs no run allocates here.
	c := &r.inst
	*c = instance{
		item:      it,
		g:         g,
		rec:       g.RecSequence(),
		state:     resize(c.state, n),
		predsLeft: resize(c.predsLeft, n),
		ruOf:      resize(c.ruOf, n),
		execStart: resize(c.execStart, n),
		reused:    resize(c.reused, n),
		delayLeft: resize(c.delayLeft, n),
		mobility:  resize(c.mobility, n),
		started:   r.engine.Now(),
	}
	for i := 0; i < n; i++ {
		c.predsLeft[i] = len(g.Preds(i))
		c.ruOf[i] = -1
	}
	if r.cfg.Mobility != nil {
		if mob := r.cfg.Mobility(g); mob != nil {
			copy(c.mobility, mob)
		}
	}
	for local, d := range r.cfg.DelayPlan {
		if local >= 0 && local < n {
			c.delayLeft[local] = d
		}
	}
	// Hand over cross-graph preloads: configurations already loaded for
	// this instance become Ready (they were loads, not reuses); one may
	// still be in flight, in which case its end_of_reconfiguration event
	// will complete it through the normal path.
	if it.Instance == r.preloadFor {
		for k, id := range r.preloadDoneIDs {
			local := g.IndexOf(id)
			c.state[local] = stateReady
			c.ruOf[local] = r.preloadDoneRUs[k]
		}
		if r.preloadInFlight != taskgraph.NoTask {
			local := g.IndexOf(r.preloadInFlight)
			c.state[local] = stateLoading
			r.preloadInFlight = taskgraph.NoTask
		}
		r.preloadFor = -1
		r.preloadDoneIDs = r.preloadDoneIDs[:0]
		r.preloadDoneRUs = r.preloadDoneRUs[:0]
	}
	r.cur = c
	r.skipArmed = false
	r.res.Templates[it.Instance] = g
}

// startReadyExecutions launches every task whose configuration is resident
// and whose predecessors are all done. It reports whether any started.
func (r *Runner) startReadyExecutions() bool {
	started := false
	now := r.engine.Now()
	c := r.cur
	for i := 0; i < c.g.NumTasks(); i++ {
		if c.state[i] != stateReady || c.predsLeft[i] != 0 {
			continue
		}
		unit := c.ruOf[i]
		end := now.Add(c.g.Task(i).Exec)
		r.units.StartExecution(unit, end)
		c.state[i] = stateExecuting
		c.execStart[i] = now
		r.engine.Schedule(end, sim.EndOfExecution, c.g.Task(i).ID, unit)
		started = true
	}
	return started
}

// replacementModule is Fig. 8: handle the next reconfiguration-sequence
// entry. It reports whether it made progress (reuse or load started); a
// skip or a lack of candidates is not progress.
func (r *Runner) replacementModule() bool {
	c := r.cur
	// Entries satisfied by a cross-graph preload are already resident;
	// consume them silently.
	for c.recPos < len(c.rec) && c.state[c.rec[c.recPos]] != stateNotLoaded {
		c.recPos++
	}
	if c.recPos == len(c.rec) {
		return false
	}
	local := c.rec[c.recPos]
	id := c.g.Task(local).ID

	// Reuse: the configuration is already resident somewhere.
	if unit, ok := r.units.Find(id); ok {
		r.units.CountReuse(unit)
		c.state[local] = stateReady
		c.ruOf[local] = unit
		c.reused[local] = true
		c.recPos++
		r.protected.add(id)
		return true
	}

	// Determine whether a placement is possible at all: an empty unit, or
	// at least one replaceable candidate (an idle unit whose resident
	// configuration is not still awaiting execution in the running
	// graph). Fig. 8 exits with no action when the victim set is empty —
	// skips, forced or voluntary, are only meaningful when the load could
	// have proceeded.
	emptyUnit, hasEmpty := r.units.FirstEmpty()
	var cands []policy.Candidate
	if !hasEmpty {
		if cands = r.candidates(); len(cands) == 0 {
			return false // wait for a unit to free up
		}
	}

	// Forced postponement (design-time mobility calculation, Fig. 6):
	// consume one delay per event at which the load could have happened,
	// provided a future event exists to wait for.
	if c.delayLeft[local] > 0 && r.engine.Len() > 0 {
		c.delayLeft[local]--
		r.res.ForcedSkips++
		r.skipArmed = true
		return false
	}

	// An empty unit needs no victim and cannot host a reusable one, so
	// the run-time skip logic does not apply (Fig. 8 step 4 requires a
	// reusable victim).
	if hasEmpty {
		r.beginLoad(local, id, emptyUnit)
		return true
	}

	dec := r.cfg.Policy.SelectVictim(policy.Request{
		Task: id, Now: r.engine.Now(), Future: r.oracle(),
	}, cands)
	r.checkDecision(dec, cands)

	// Skip events (Fig. 8, steps 4–5): protect a reusable victim by
	// postponing this load, if the task's mobility allows one more skip
	// and there is a future event to wait for.
	if r.cfg.SkipEvents && dec.Reusable && c.mobility[local] > c.skipped && r.engine.Len() > 0 {
		c.skipped++
		r.res.Skips++
		r.skipArmed = true
		if r.tr != nil {
			r.tr.Skips = append(r.tr.Skips, trace.Skip{
				Task: id, Victim: dec.Victim, At: r.engine.Now(), Instance: c.item.Instance,
			})
		}
		return false
	}

	r.beginLoad(local, id, dec.RU)
	return true
}

// candidates refills the candidate buffer with the replaceable units:
// idle ones whose resident configuration is not protected.
func (r *Runner) candidates() []policy.Candidate {
	cands := r.candbuf[:0]
	for i := 0; i < r.units.Len(); i++ {
		u := r.units.Unit(i)
		if u.Busy || r.protected.has(u.Resident) {
			continue
		}
		cands = append(cands, policy.Candidate{
			RU: i, Task: u.Resident, LastUse: u.LastUse, LoadedAt: u.LoadedAt,
		})
	}
	r.candbuf = cands
	return cands
}

// checkDecision guards against misbehaving Policy implementations:
// evicting a unit outside the candidate set would corrupt the simulation
// (e.g. destroy an executing or pending configuration), so it is caught
// immediately rather than surfacing as a bizarre schedule.
func (r *Runner) checkDecision(dec policy.Decision, cands []policy.Candidate) {
	for _, c := range cands {
		if c.RU == dec.RU && c.Task == dec.Victim {
			return
		}
	}
	panic(fmt.Sprintf("manager: policy %s chose victim task %d on unit %d, not among the %d candidates",
		r.cfg.Policy.Name(), dec.Victim, dec.RU, len(cands)))
}

// beginLoad starts the reconfiguration of the running graph's task id
// onto the given unit.
func (r *Runner) beginLoad(local int, id taskgraph.TaskID, unit int) {
	r.cur.state[local] = stateLoading
	r.cur.recPos++
	r.load(id, unit, r.cur.item.Instance)
}

// load installs task id onto unit through the circuitry, pins it and
// schedules the end of the reconfiguration; instance is the application
// the load is for.
func (r *Runner) load(id taskgraph.TaskID, unit, instance int) {
	now := r.engine.Now()
	evicted := r.units.Install(unit, id, now)
	if evicted != taskgraph.NoTask {
		r.res.Evictions++
	}
	latency := r.cfg.Latency
	if r.cfg.LatencyFor != nil {
		latency = r.cfg.LatencyFor(id)
	}
	end := r.recon.BeginLatency(id, unit, now, latency)
	r.res.Loads++
	r.protected.add(id)
	r.engine.Schedule(end, sim.EndOfReconfiguration, id, unit)
	if r.tr != nil {
		r.tr.Loads = append(r.tr.Loads, trace.Load{
			Task: id, RU: unit, Start: now, End: end,
			Evicted: evicted, Instance: instance,
		})
	}
}

// preloadStep advances the cross-graph prefetch: while the circuitry is
// idle and the running graph needs no more loads, bring the next enqueued
// graph's configurations onto the array — pinning those already resident
// and loading the missing ones, one per invocation. It reports whether a
// load started.
func (r *Runner) preloadStep() bool {
	head := r.dl.At(0)
	if r.preloadFor != head.Instance {
		r.preloadFor = head.Instance
		r.preloadPos = 0
		r.preloadDoneIDs = r.preloadDoneIDs[:0]
		r.preloadDoneRUs = r.preloadDoneRUs[:0]
		r.preloadInFlight = taskgraph.NoTask
	}
	g := head.Graph
	rec := g.RecSequence()
	for r.preloadPos < len(rec) {
		id := g.Task(rec[r.preloadPos]).ID
		if _, ok := r.units.Find(id); ok {
			// Already resident (a completed preload or a leftover from an
			// earlier instance): pin it so it survives until the instance
			// starts — leftovers will be counted as reuses then.
			r.protected.add(id)
			r.preloadPos++
			continue
		}
		// Place the missing configuration.
		unit, hasEmpty := r.units.FirstEmpty()
		if !hasEmpty {
			cands := r.candidates()
			if len(cands) == 0 {
				return false
			}
			dec := r.cfg.Policy.SelectVictim(policy.Request{
				Task: id, Now: r.engine.Now(), Future: r.oracle(),
			}, cands)
			r.checkDecision(dec, cands)
			// Conservative mode: a preload is opportunistic, so never pay
			// for it with a configuration the lookahead says will be
			// reused — wait for a dead victim or for the instance to
			// start (at which point the load is mandatory and Fig. 8's
			// normal economics apply). This only has teeth when the
			// policy's window reaches past the graph being preloaded.
			if r.cfg.ConservativePrefetch && dec.Reusable {
				return false
			}
			unit = dec.RU
		}
		r.load(id, unit, head.Instance)
		r.res.Preloads++
		r.preloadInFlight = id
		r.preloadPos++
		return true
	}
	return false
}
