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
// its worked figures and are locked in by the TestFig2*/TestFig3* tests:
// applications execute strictly sequentially (the loads of graph k+1 begin
// when graph k completes); eviction candidates are units that are neither
// executing nor holding a configuration still awaiting execution in the
// running graph; and a postponed load waits for the next simulator event.
//
// There is no event queue: the pending events are read off the state. Each
// executing task ends once, the single circuitry has at most one load in
// flight, and arrivals are handled in order, so the next event is the
// earliest of the first execution to end, the in-flight load's end and the
// next arrival. At one instant, executions end first (in start order),
// then the load, then the arrival.
//
// The steady-state event loop is allocation-free: a Runner owns every
// piece of per-run state (running executions, unit array, instance
// bookkeeping, next-use index and candidate buffer) and reuses it across
// runs, so a sweep worker simulates its whole slice of the grid on warm
// memory. See ARCHITECTURE.md §"The hot loop" for the design and its
// invariant — reuse never changes simulation output.
package manager

import (
	"fmt"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/ru"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// Config parametrizes a run.
type Config struct {
	// RUs is the number of reconfigurable units (≥1).
	RUs int
	// Latency is the reconfiguration latency (0 is allowed and yields the
	// ideal schedule used as the overhead baseline; see Runner.Ideal).
	Latency simtime.Time
	// LatencyFor, when non-nil, supplies a per-task latency (e.g. derived
	// from per-task bitstream sizes), overriding Latency. It is called
	// once per distinct task of a run, and a negative value makes Run
	// fail. The paper assumes a uniform latency; this is the
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

// eventKind names the paper's three events (Fig. 4). At one instant they
// are handled in this order: a task finishing at t frees its unit before
// a load decision at t, and a load ending at t lands before an
// application arriving at t is queued.
type eventKind int8

const (
	endOfExecution eventKind = iota
	endOfReconfiguration
	newTaskGraph
)

func (k eventKind) String() string {
	return [...]string{"end_of_execution", "end_of_reconfiguration", "new_task_graph"}[k]
}

// execution is a running task: when it ends, the unit it occupies and its
// local index in the running graph.
type execution struct {
	end   simtime.Time
	unit  int
	local int
}

// taskRun is the bookkeeping of one task of the running instance, in one
// record so that a handler touches one place per task.
type taskRun struct {
	execStart simtime.Time
	predsLeft int
	ru        int // unit holding the task while Ready/Executing
	delayLeft int // remaining forced postponements
	mobility  int
	state     taskState
	reused    bool
}

// instance is the running application.
type instance struct {
	item      dynlist.Item
	g         *taskgraph.Graph
	rec       []int // local-index reconfiguration sequence
	recPos    int   // next entry to handle
	tasks     []taskRun
	doneCount int
	// startable counts the Ready tasks with no predecessor left: the
	// ones startReadyExecutions would start.
	startable int
	started   simtime.Time
	skipped   int // skipped_events counter (Fig. 8), reset per graph
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
// of runs sequentially, recycling every internal structure — running
// executions, unit array, instance bookkeeping, next-use index, candidate
// buffer — so that after the first run the event loop allocates nothing.
// Reuse is observationally invisible: a reused Runner produces
// byte-identical results to a fresh one (property-tested). A Runner is not
// safe for concurrent use; give each goroutine its own.
type Runner struct {
	cfg   Config
	now   simtime.Time
	units *ru.Array
	recon *ru.Reconfigurator
	// running holds the executing tasks ordered by end time, ties in start
	// order; its head is the next end_of_execution.
	running []execution
	// loadLocal is the local index of the in-flight load's task in the
	// graph it is for.
	loadLocal int
	// latencies holds LatencyFor's answer per task ID; latencySeen marks
	// the IDs already asked.
	latencies   []simtime.Time
	latencySeen taskSet

	arrivals []dynlist.Item
	arrived  int // arrivals already pushed into the DL; the next one is pending
	dl       dynlist.List
	inst     instance // pooled storage for the running application
	cur      *instance

	protected taskSet
	skipArmed bool

	// Cross-graph prefetch state: the instance being preloaded, the
	// position reached in its reconfiguration sequence, its completed
	// preloads (parallel local-index/unit slices, in completion order),
	// and whether the in-flight load is a preload.
	preloadFor       int
	preloadPos       int
	preloadDoneLocal []int
	preloadDoneRUs   []int
	preloadInFlight  bool

	fut     future
	candbuf []policy.Candidate

	res Result
	tr  *trace.Trace
}

// NewRunner returns an empty Runner, ready for its first Run.
func NewRunner() *Runner { return &Runner{preloadFor: -1} }

// Run executes the applications of arrivals under cfg and returns the
// aggregated result. It is shorthand for NewRunner().Run — callers
// running many simulations should hold on to one Runner instead.
func Run(cfg Config, arrivals []dynlist.Item) (*Result, error) {
	return NewRunner().Run(cfg, arrivals)
}

// Run executes the applications of arrivals under cfg and returns the
// aggregated result. The Runner's state is fully re-initialized first, so
// runs are independent regardless of what ran before. The Runner only
// reads arrivals, so one slice can drive any number of runs, concurrent
// ones on different Runners included.
func (r *Runner) Run(cfg Config, arrivals []dynlist.Item) (*Result, error) {
	if err := r.Reset(cfg); err != nil {
		return nil, err
	}
	if err := r.start(arrivals); err != nil {
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
		r.recon = new(ru.Reconfigurator)
	} else {
		r.recon.Reset()
	}
	policy.Reset(cfg.Policy)
	r.cfg = cfg
	r.now = 0
	if cap(r.running) < cfg.RUs {
		r.running = make([]execution, 0, cfg.RUs)
	}
	r.running = r.running[:0]
	r.arrivals = nil
	r.arrived = 0
	r.dl.Reset()
	r.cur = nil
	r.skipArmed = false
	r.preloadFor = -1
	r.preloadPos = 0
	r.preloadDoneLocal = r.preloadDoneLocal[:0]
	r.preloadDoneRUs = r.preloadDoneRUs[:0]
	r.preloadInFlight = false
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

// start checks arrivals, pre-sizes every per-run structure from the
// workload's shape, asks LatencyFor for each distinct task's latency and
// indexes the future (for a policy that sees one). The run reads arrivals
// in place and never writes to them.
//
// Arrivals are handled in order, so the next arrival is the only one
// pending. The next-use index relies on the arrival order being the
// instance order — the Dynamic List window is then a contiguous run of
// instances — so a list that numbers its items out of order or goes back
// in time is rejected.
func (r *Runner) start(arrivals []dynlist.Item) error {
	var (
		maxID taskgraph.TaskID
		tasks int
		prev  simtime.Time
	)
	for i, it := range arrivals {
		if err := checkArrival(i, it, prev); err != nil {
			return err
		}
		prev = it.Arrival
		if id := it.Graph.MaxTaskID(); id > maxID {
			maxID = id
		}
		tasks += it.Graph.NumTasks()
	}
	r.arrivals = arrivals
	r.protected.reset(maxID)
	if r.cfg.LatencyFor != nil {
		if err := r.tabulateLatencies(maxID); err != nil {
			return err
		}
	}
	if r.cfg.Policy.Window() != policy.WindowNone {
		r.fut.build(r.arrivals, maxID)
	}
	if cap(r.res.Completions) < len(r.arrivals) {
		r.res.Completions = make([]simtime.Time, 0, len(r.arrivals))
	}
	r.res.Templates = resize(r.res.Templates, len(r.arrivals))
	if r.tr != nil {
		// Pre-size the trace from the workload shape: at most one load and
		// exactly one exec per task occurrence, one record per instance.
		r.tr.Loads = make([]trace.Load, 0, tasks)
		r.tr.Execs = make([]trace.Exec, 0, tasks)
		r.tr.Graphs = make([]trace.Graph, 0, len(r.arrivals))
	}
	return nil
}

// checkArrival checks that it can be arrival i of a list whose arrival
// i-1 came at prev: a graph, instance number i, and no earlier than prev.
func checkArrival(i int, it dynlist.Item, prev simtime.Time) error {
	if it.Graph == nil {
		return fmt.Errorf("manager: arrival %d has nil graph", i)
	}
	if it.Instance != i {
		return fmt.Errorf("manager: arrival %d carries instance number %d", i, it.Instance)
	}
	if i > 0 && it.Arrival < prev {
		return fmt.Errorf("manager: arrival %d at %v precedes arrival %d at %v",
			i, it.Arrival, i-1, prev)
	}
	return nil
}

// tabulateLatencies evaluates LatencyFor once per distinct task ID of the
// run, rejecting a negative latency.
func (r *Runner) tabulateLatencies(maxID taskgraph.TaskID) error {
	if n := int(maxID) + 1; n > len(r.latencies) {
		r.latencies = make([]simtime.Time, n)
	}
	r.latencySeen.reset(maxID)
	for _, it := range r.arrivals {
		for i := 0; i < it.Graph.NumTasks(); i++ {
			id := it.Graph.Task(i).ID
			if r.latencySeen.has(id) {
				continue
			}
			r.latencySeen.add(id)
			lat := r.cfg.LatencyFor(id)
			if lat < 0 {
				return fmt.Errorf("manager: negative latency %v for task %d", lat, id)
			}
			r.latencies[id] = lat
		}
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

// loop is the event loop: step until no event is pending.
func (r *Runner) loop() error {
	for {
		if more, err := r.step(); !more || err != nil {
			return err
		}
	}
}

// next returns the next event: the earliest of the first execution to
// end, the in-flight load's end and the next arrival, ties going to
// execution, then reconfiguration, then arrival. ok is false when none is
// pending.
func (r *Runner) next() (kind eventKind, at simtime.Time, ok bool) {
	if len(r.running) > 0 {
		kind, at, ok = endOfExecution, r.running[0].end, true
	}
	if end, active := r.recon.End(); active && (!ok || end < at) {
		kind, at, ok = endOfReconfiguration, end, true
	}
	if r.arrived < len(r.arrivals) {
		if t := r.arrivals[r.arrived].Arrival; !ok || t < at {
			kind, at, ok = newTaskGraph, t, true
		}
	}
	return kind, at, ok
}

// pending returns the number of pending events: one per executing task,
// the in-flight load and the next arrival — at most RUs + 2.
func (r *Runner) pending() int {
	n := len(r.running)
	if !r.recon.Idle() {
		n++
	}
	if r.arrived < len(r.arrivals) {
		n++
	}
	return n
}

// step handles the next event and settles. It reports false once no event
// is pending, with an error if work is still pending then.
func (r *Runner) step() (bool, error) {
	kind, at, ok := r.next()
	if !ok {
		if r.cur != nil || r.dl.Len() > 0 {
			return false, fmt.Errorf("manager: simulation stalled at %v with work pending (running=%v, queued=%d)",
				r.now, r.cur != nil, r.dl.Len())
		}
		return false, nil
	}
	r.now = at
	r.res.Events++
	if r.res.Events > r.cfg.MaxEvents {
		return false, fmt.Errorf("manager: exceeded %d events at %v — runaway simulation",
			r.cfg.MaxEvents, r.now)
	}
	// A new event is the moment a postponed load waits for.
	r.skipArmed = false
	switch kind {
	case newTaskGraph:
		r.dl.Push(r.arrivals[r.arrived])
		r.arrived++
	case endOfReconfiguration:
		r.handleEndOfReconfiguration()
	case endOfExecution:
		r.handleEndOfExecution()
	}
	return true, r.settle()
}

func (r *Runner) handleEndOfReconfiguration() {
	task, unit := r.recon.Finish()
	if r.preloadInFlight {
		// A cross-graph preload completed before its instance started.
		r.preloadDoneLocal = append(r.preloadDoneLocal, r.loadLocal)
		r.preloadDoneRUs = append(r.preloadDoneRUs, unit)
		r.preloadInFlight = false
		return
	}
	c := r.cur
	t := &c.tasks[r.loadLocal]
	if c.g.Task(r.loadLocal).ID != task || t.state != stateLoading {
		panic(fmt.Sprintf("manager: end_of_reconfiguration for unexpected task %d", task))
	}
	t.state = stateReady
	t.ru = unit
	if t.predsLeft == 0 {
		c.startable++
	}
}

func (r *Runner) handleEndOfExecution() {
	ex := r.running[0]
	r.running = r.running[:copy(r.running, r.running[1:])]
	r.units.FinishExecution(ex.unit, r.now)
	c := r.cur
	t := &c.tasks[ex.local]
	id := c.g.Task(ex.local).ID
	if id != r.units.Unit(ex.unit).Resident || t.state != stateExecuting {
		panic(fmt.Sprintf("manager: end_of_execution for unexpected task %d", id))
	}
	t.state = stateDone
	c.doneCount++
	r.protected.remove(id)
	r.res.Executed++
	if t.reused {
		r.res.Reused++
	}
	if r.tr != nil {
		r.tr.Execs = append(r.tr.Execs, trace.Exec{
			Task: id, RU: ex.unit,
			Start: t.execStart, End: r.now,
			Reused: t.reused, Instance: c.item.Instance,
		})
	}
	for _, s := range c.g.Succs(ex.local) {
		succ := &c.tasks[s]
		succ.predsLeft--
		if succ.predsLeft == 0 && succ.state == stateReady {
			c.startable++
		}
	}
	if c.doneCount == len(c.tasks) {
		r.finishInstance(r.now)
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
	// The pooled instance storage is recycled: the task records are
	// resliced and zeroed in place, so after the first few graphs no run
	// allocates here.
	c := &r.inst
	*c = instance{
		item:    it,
		g:       g,
		rec:     g.RecSequence(),
		tasks:   resize(c.tasks, n),
		started: r.now,
	}
	var mob []int
	if r.cfg.Mobility != nil {
		mob = r.cfg.Mobility(g)
	}
	for i := range c.tasks {
		t := &c.tasks[i]
		t.predsLeft = len(g.Preds(i))
		t.ru = -1
		if i < len(mob) {
			t.mobility = mob[i]
		}
	}
	if r.cfg.DelayPlan != nil {
		for local, d := range r.cfg.DelayPlan {
			if local >= 0 && local < n {
				c.tasks[local].delayLeft = d
			}
		}
	}
	// Hand over cross-graph preloads: configurations already loaded for
	// this instance become Ready (they were loads, not reuses); one may
	// still be in flight, in which case its end_of_reconfiguration event
	// will complete it through the normal path.
	if it.Instance == r.preloadFor {
		for k, local := range r.preloadDoneLocal {
			t := &c.tasks[local]
			t.state = stateReady
			t.ru = r.preloadDoneRUs[k]
			if t.predsLeft == 0 {
				c.startable++
			}
		}
		if r.preloadInFlight {
			c.tasks[r.loadLocal].state = stateLoading
			r.preloadInFlight = false
		}
		r.preloadFor = -1
		r.preloadDoneLocal = r.preloadDoneLocal[:0]
		r.preloadDoneRUs = r.preloadDoneRUs[:0]
	}
	r.cur = c
	r.skipArmed = false
	r.res.Templates[it.Instance] = g
}

// startReadyExecutions launches every task whose configuration is resident
// and whose predecessors are all done, in local-index order. It reports
// whether any started.
func (r *Runner) startReadyExecutions() bool {
	c := r.cur
	if c.startable == 0 {
		return false
	}
	for i := range c.tasks {
		t := &c.tasks[i]
		if t.state != stateReady || t.predsLeft != 0 {
			continue
		}
		end := r.now.Add(c.g.Task(i).Exec)
		r.units.StartExecution(t.ru, end)
		t.state = stateExecuting
		t.execStart = r.now
		r.run(execution{end: end, unit: t.ru, local: i})
		if c.startable--; c.startable == 0 {
			break
		}
	}
	return true
}

// run adds e to the running executions behind every one that ends no
// later, so executions ending at one instant end in start order.
func (r *Runner) run(e execution) {
	i := len(r.running)
	for i > 0 && r.running[i-1].end > e.end {
		i--
	}
	r.running = append(r.running, execution{})
	copy(r.running[i+1:], r.running[i:])
	r.running[i] = e
}

// replacementModule is Fig. 8: handle the next reconfiguration-sequence
// entry. It reports whether it made progress (reuse or load started); a
// skip or a lack of candidates is not progress.
func (r *Runner) replacementModule() bool {
	c := r.cur
	// Entries satisfied by a cross-graph preload are already resident;
	// consume them silently.
	for c.recPos < len(c.rec) && c.tasks[c.rec[c.recPos]].state != stateNotLoaded {
		c.recPos++
	}
	if c.recPos == len(c.rec) {
		return false
	}
	local := c.rec[c.recPos]
	t := &c.tasks[local]
	id := c.g.Task(local).ID

	// Reuse: the configuration is already resident somewhere.
	if unit, ok := r.units.Find(id); ok {
		r.units.CountReuse(unit)
		t.state = stateReady
		t.ru = unit
		t.reused = true
		if t.predsLeft == 0 {
			c.startable++
		}
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
	if t.delayLeft > 0 && r.pending() > 0 {
		t.delayLeft--
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
		Task: id, Now: r.now, Future: r.oracle(),
	}, cands)
	r.checkDecision(dec, cands)

	// Skip events (Fig. 8, steps 4–5): protect a reusable victim by
	// postponing this load, if the task's mobility allows one more skip
	// and there is a future event to wait for.
	if r.cfg.SkipEvents && dec.Reusable && t.mobility > c.skipped && r.pending() > 0 {
		c.skipped++
		r.res.Skips++
		r.skipArmed = true
		if r.tr != nil {
			r.tr.Skips = append(r.tr.Skips, trace.Skip{
				Task: id, Victim: dec.Victim, At: r.now, Instance: c.item.Instance,
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
	r.cur.tasks[local].state = stateLoading
	r.cur.recPos++
	r.load(local, id, unit, r.cur.item.Instance)
}

// load installs task id, at local index local of its graph, onto unit
// through the circuitry and pins it; instance is the application the load
// is for.
func (r *Runner) load(local int, id taskgraph.TaskID, unit, instance int) {
	now := r.now
	evicted := r.units.Install(unit, id, now)
	if evicted != taskgraph.NoTask {
		r.res.Evictions++
	}
	latency := r.cfg.Latency
	if r.cfg.LatencyFor != nil {
		latency = r.latencies[id]
	}
	end := r.recon.BeginLatency(id, unit, now, latency)
	r.loadLocal = local
	r.res.Loads++
	r.protected.add(id)
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
		r.preloadDoneLocal = r.preloadDoneLocal[:0]
		r.preloadDoneRUs = r.preloadDoneRUs[:0]
		r.preloadInFlight = false
	}
	g := head.Graph
	rec := g.RecSequence()
	for r.preloadPos < len(rec) {
		local := rec[r.preloadPos]
		id := g.Task(local).ID
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
				Task: id, Now: r.now, Future: r.oracle(),
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
		r.load(local, id, unit, head.Instance)
		r.res.Preloads++
		r.preloadInFlight = true
		r.preloadPos++
		return true
	}
	return false
}
