package manager

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// tieArrivals puts arrivals on the instants where event order decides the
// outcome: three at 0 ms, one at 4 ms (the end_of_reconfiguration of
// task 1's load) and two at 6.5 ms (the end_of_execution of task 1).
func tieArrivals(t *testing.T) []dynlist.Item {
	t.Helper()
	tg1, tg2 := workload.Fig2TG1(), workload.Fig2TG2()
	arrivals, err := dynlist.NewTimed([]dynlist.Item{
		{Graph: tg1, Arrival: 0},
		{Graph: tg2, Arrival: 0},
		{Graph: tg1, Arrival: 0},
		{Graph: tg2, Arrival: ms(4)},
		{Graph: tg1, Arrival: ms(6.5)},
		{Graph: tg2, Arrival: ms(6.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

// TestEventOrderAtTies pins the pop order, the result and the trace of a
// run whose arrivals coincide with each other and with both other event
// kinds, and checks that no more than the in-flight events are ever
// pending: one per unit, one load and the next arrival.
func TestEventOrderAtTies(t *testing.T) {
	cfg := Config{
		RUs: 2, Latency: ms(4), Policy: mustLocalLFD(t, 1), RecordTrace: true,
		SkipEvents: true,
		Mobility: func(g *taskgraph.Graph) []int {
			mob := make([]int, g.NumTasks())
			for i := range mob {
				mob[i] = 1
			}
			return mob
		},
	}
	r := NewRunner()
	if err := r.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	arrivals := tieArrivals(t)
	if err := r.start(arrivals); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for {
		ev := peekEvent(r)
		more, err := r.step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		fmt.Fprintf(&b, "pop %s\n", ev)
		if n := r.pending(); n > cfg.RUs+2 {
			t.Errorf("after %s: %d pending events, want at most %d", ev, n, cfg.RUs+2)
		}
	}
	res := r.snapshot()
	if err := res.Trace.Validate(graphsOf(arrivals)); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	fmt.Fprintf(&b, "makespan=%v executed=%d reused=%d loads=%d evictions=%d skips=%d graphs=%d events=%d\n",
		res.Makespan, res.Executed, res.Reused, res.Loads, res.Evictions, res.Skips, res.Graphs, res.Events)
	fmt.Fprintf(&b, "completions=%v\n", res.Completions)
	for _, l := range res.Trace.Loads {
		fmt.Fprintf(&b, "load %+v\n", l)
	}
	for _, e := range res.Trace.Execs {
		fmt.Fprintf(&b, "exec %+v\n", e)
	}
	for _, s := range res.Trace.Skips {
		fmt.Fprintf(&b, "skip %+v\n", s)
	}
	for _, g := range res.Trace.Graphs {
		fmt.Fprintf(&b, "graph %+v\n", g)
	}
	if got := b.String(); got != tieGolden {
		t.Errorf("run changed:\n%s\nwant:\n%s", got, tieGolden)
	}
}

// peekEvent renders the event step handles next: its time and kind, the
// task and unit involved (0 and -1 for an arrival) and the arrival index
// (0 for the other kinds). It is empty when no event is pending.
func peekEvent(r *Runner) string {
	kind, at, ok := r.next()
	if !ok {
		return ""
	}
	task, unit, arg := taskgraph.NoTask, -1, 0
	switch kind {
	case endOfExecution:
		e := r.running[0]
		task, unit = r.cur.g.Task(e.local).ID, e.unit
	case endOfReconfiguration:
		task, unit, _ = r.recon.InFlight()
	case newTaskGraph:
		arg = r.arrived
	}
	return fmt.Sprintf("%v %s task=%d ru=%d arg=%d", at, kind, task, unit, arg)
}

// tieGolden is the expected pop order, result and trace of the run.
const tieGolden = `pop 0 ms new_task_graph task=0 ru=-1 arg=0
pop 0 ms new_task_graph task=0 ru=-1 arg=1
pop 0 ms new_task_graph task=0 ru=-1 arg=2
pop 4 ms end_of_reconfiguration task=1 ru=0 arg=0
pop 4 ms new_task_graph task=0 ru=-1 arg=3
pop 6.5 ms end_of_execution task=1 ru=0 arg=0
pop 6.5 ms new_task_graph task=0 ru=-1 arg=4
pop 6.5 ms new_task_graph task=0 ru=-1 arg=5
pop 8 ms end_of_reconfiguration task=2 ru=1 arg=0
pop 10.5 ms end_of_execution task=2 ru=1 arg=0
pop 12 ms end_of_reconfiguration task=3 ru=0 arg=0
pop 16 ms end_of_execution task=3 ru=0 arg=0
pop 20 ms end_of_reconfiguration task=4 ru=0 arg=0
pop 24 ms end_of_execution task=4 ru=0 arg=0
pop 28 ms end_of_reconfiguration task=5 ru=0 arg=0
pop 32 ms end_of_execution task=5 ru=0 arg=0
pop 36 ms end_of_reconfiguration task=1 ru=0 arg=0
pop 38.5 ms end_of_execution task=1 ru=0 arg=0
pop 41 ms end_of_execution task=2 ru=1 arg=0
pop 42.5 ms end_of_reconfiguration task=3 ru=0 arg=0
pop 46.5 ms end_of_execution task=3 ru=0 arg=0
pop 50.5 ms end_of_reconfiguration task=4 ru=0 arg=0
pop 54.5 ms end_of_execution task=4 ru=0 arg=0
pop 58.5 ms end_of_reconfiguration task=5 ru=0 arg=0
pop 62.5 ms end_of_execution task=5 ru=0 arg=0
pop 66.5 ms end_of_reconfiguration task=1 ru=0 arg=0
pop 69 ms end_of_execution task=1 ru=0 arg=0
pop 71.5 ms end_of_execution task=2 ru=1 arg=0
pop 73 ms end_of_reconfiguration task=3 ru=0 arg=0
pop 77 ms end_of_execution task=3 ru=0 arg=0
pop 81 ms end_of_reconfiguration task=4 ru=0 arg=0
pop 85 ms end_of_execution task=4 ru=0 arg=0
pop 85 ms end_of_reconfiguration task=5 ru=1 arg=0
pop 89 ms end_of_execution task=5 ru=1 arg=0
makespan=89 ms executed=15 reused=2 loads=13 evictions=11 skips=2 graphs=6 events=34
completions=[16 ms 32 ms 46.5 ms 62.5 ms 77 ms 89 ms]
load {Task:1 RU:0 Start:0 ms End:4 ms Evicted:0 Instance:0}
load {Task:2 RU:1 Start:4 ms End:8 ms Evicted:0 Instance:0}
load {Task:3 RU:0 Start:8 ms End:12 ms Evicted:1 Instance:0}
load {Task:4 RU:0 Start:16 ms End:20 ms Evicted:3 Instance:1}
load {Task:5 RU:0 Start:24 ms End:28 ms Evicted:4 Instance:1}
load {Task:1 RU:0 Start:32 ms End:36 ms Evicted:5 Instance:2}
load {Task:3 RU:0 Start:38.5 ms End:42.5 ms Evicted:1 Instance:2}
load {Task:4 RU:0 Start:46.5 ms End:50.5 ms Evicted:3 Instance:3}
load {Task:5 RU:0 Start:54.5 ms End:58.5 ms Evicted:4 Instance:3}
load {Task:1 RU:0 Start:62.5 ms End:66.5 ms Evicted:5 Instance:4}
load {Task:3 RU:0 Start:69 ms End:73 ms Evicted:1 Instance:4}
load {Task:4 RU:0 Start:77 ms End:81 ms Evicted:3 Instance:5}
load {Task:5 RU:1 Start:81 ms End:85 ms Evicted:2 Instance:5}
exec {Task:1 RU:0 Start:4 ms End:6.5 ms Reused:false Instance:0}
exec {Task:2 RU:1 Start:8 ms End:10.5 ms Reused:false Instance:0}
exec {Task:3 RU:0 Start:12 ms End:16 ms Reused:false Instance:0}
exec {Task:4 RU:0 Start:20 ms End:24 ms Reused:false Instance:1}
exec {Task:5 RU:0 Start:28 ms End:32 ms Reused:false Instance:1}
exec {Task:1 RU:0 Start:36 ms End:38.5 ms Reused:false Instance:2}
exec {Task:2 RU:1 Start:38.5 ms End:41 ms Reused:true Instance:2}
exec {Task:3 RU:0 Start:42.5 ms End:46.5 ms Reused:false Instance:2}
exec {Task:4 RU:0 Start:50.5 ms End:54.5 ms Reused:false Instance:3}
exec {Task:5 RU:0 Start:58.5 ms End:62.5 ms Reused:false Instance:3}
exec {Task:1 RU:0 Start:66.5 ms End:69 ms Reused:false Instance:4}
exec {Task:2 RU:1 Start:69 ms End:71.5 ms Reused:true Instance:4}
exec {Task:3 RU:0 Start:73 ms End:77 ms Reused:false Instance:4}
exec {Task:4 RU:0 Start:81 ms End:85 ms Reused:false Instance:5}
exec {Task:5 RU:1 Start:85 ms End:89 ms Reused:false Instance:5}
skip {Task:5 Victim:2 At:20 ms Instance:1}
skip {Task:5 Victim:2 At:50.5 ms Instance:3}
graph {Name:fig2-tg1 Instance:0 Arrived:0 ms Started:0 ms Finished:16 ms}
graph {Name:fig2-tg2 Instance:1 Arrived:0 ms Started:16 ms Finished:32 ms}
graph {Name:fig2-tg1 Instance:2 Arrived:0 ms Started:32 ms Finished:46.5 ms}
graph {Name:fig2-tg2 Instance:3 Arrived:4 ms Started:46.5 ms Finished:62.5 ms}
graph {Name:fig2-tg1 Instance:4 Arrived:6.5 ms Started:62.5 ms Finished:77 ms}
graph {Name:fig2-tg2 Instance:5 Arrived:6.5 ms Started:77 ms Finished:89 ms}
`

// pops steps a run of cfg over arrivals to the end and returns every event
// it handled, rendered by peekEvent.
func pops(t *testing.T, cfg Config, arrivals []dynlist.Item) []string {
	t.Helper()
	r := NewRunner()
	if err := r.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if err := r.start(arrivals); err != nil {
		t.Fatal(err)
	}
	var out []string
	for {
		ev := peekEvent(r)
		more, err := r.step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return out
		}
		out = append(out, ev)
	}
}

// timed numbers graphs arriving at the given instants.
func timed(t *testing.T, items ...dynlist.Item) []dynlist.Item {
	t.Helper()
	arrivals, err := dynlist.NewTimed(items)
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

// wantPops fails unless got holds want as a contiguous run.
func wantPops(t *testing.T, got []string, want ...string) {
	t.Helper()
	for i := 0; i+len(want) <= len(got); i++ {
		if slices.Equal(got[i:i+len(want)], want) {
			return
		}
	}
	t.Errorf("pops do not contain\n  %s\ngot\n  %s", strings.Join(want, "\n  "), strings.Join(got, "\n  "))
}

// TestEqualEndsPopInStartOrder: two executions that end at one instant
// pop in the order they started, not in local-index order. Task 2 loads
// first and runs 4–10 ms; task 1 loads next and runs 8–10 ms.
func TestEqualEndsPopInStartOrder(t *testing.T) {
	g := taskgraph.NewBuilder("pair").
		AddTask(1, "short", ms(2)).
		AddTask(2, "long", ms(6)).
		SetRecSequence(2, 1).
		MustBuild()
	got := pops(t, Config{RUs: 2, Latency: ms(4), Policy: policy.NewLRU()}, dynlist.NewSequence(g))
	wantPops(t, got,
		"10 ms end_of_execution task=2 ru=0 arg=0",
		"10 ms end_of_execution task=1 ru=1 arg=0")
}

// TestKindOrderAtOneInstant: an execution end, a load end and an arrival
// at one instant are handled in that order. Task 1 runs 4–8 ms while
// task 2 loads 4–8 ms, and the second graph arrives at 8 ms.
func TestKindOrderAtOneInstant(t *testing.T) {
	g := taskgraph.NewBuilder("pair").
		AddTask(1, "a", ms(4)).
		AddTask(2, "b", ms(4)).
		MustBuild()
	arrivals := timed(t, dynlist.Item{Graph: g}, dynlist.Item{Graph: workload.Fig2TG2(), Arrival: ms(8)})
	got := pops(t, Config{RUs: 2, Latency: ms(4), Policy: policy.NewLRU()}, arrivals)
	wantPops(t, got,
		"8 ms end_of_execution task=1 ru=0 arg=0",
		"8 ms end_of_reconfiguration task=2 ru=1 arg=0",
		"8 ms new_task_graph task=0 ru=-1 arg=1")
}

// TestZeroLatencyLoadBeforeArrival: a zero-latency load begun at an
// instant ends at that instant, never before it, and is handled before an
// arrival at the same instant even though the arrival was pending first.
// On one unit, task 2 can only load once task 1 ends at 2 ms.
func TestZeroLatencyLoadBeforeArrival(t *testing.T) {
	tg := taskgraph.Chain("chain", 1, ms(2), ms(2))
	arrivals := timed(t, dynlist.Item{Graph: tg}, dynlist.Item{Graph: workload.Fig2TG2(), Arrival: ms(2)})
	got := pops(t, Config{RUs: 1, Policy: policy.NewLRU()}, arrivals)
	wantPops(t, got,
		"2 ms end_of_execution task=1 ru=0 arg=0",
		"2 ms end_of_reconfiguration task=2 ru=0 arg=0",
		"2 ms new_task_graph task=0 ru=-1 arg=1")
}
