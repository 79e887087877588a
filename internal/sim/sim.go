// Package sim provides the deterministic discrete-event core of the
// simulator: a typed event set and a time-ordered queue with stable
// tie-breaking.
//
// The execution manager (internal/manager) is event-triggered exactly like
// the one in the paper's Fig. 4: it pops one event at a time, reacts, and
// lets consequences (task starts, new reconfigurations) be scheduled as
// future events. Determinism matters — every experiment must be exactly
// repeatable — so ties are broken first by event kind and then by
// scheduling order, never by map iteration or heap internals.
package sim

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// Kind enumerates the paper's event types (Fig. 4) plus the arrival event
// that feeds the Dynamic List.
type Kind int

const (
	// EndOfExecution fires when a task finishes running on its unit.
	EndOfExecution Kind = iota
	// EndOfReconfiguration fires when the reconfiguration circuitry
	// finishes loading a configuration onto a unit.
	EndOfReconfiguration
	// NewTaskGraph fires when an application arrives and is enqueued in
	// the Dynamic List.
	NewTaskGraph
)

// String names the kind the way the paper does.
func (k Kind) String() string {
	switch k {
	case EndOfExecution:
		return "end_of_execution"
	case EndOfReconfiguration:
		return "end_of_reconfiguration"
	case NewTaskGraph:
		return "new_task_graph"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled occurrence.
type Event struct {
	Time simtime.Time
	Kind Kind
	Task taskgraph.TaskID // task involved (execution / reconfiguration)
	RU   int              // unit involved, -1 when not applicable
	Arg  int              // kind-specific payload (e.g. arrival index)
	seq  uint64           // insertion order, for stable ties
}

// String renders the event for traces and error messages.
func (e Event) String() string {
	return fmt.Sprintf("%v %s task=%d ru=%d", e.Time, e.Kind, e.Task, e.RU)
}

// before defines the total event order: by time, then by kind
// (end_of_execution first, so that a task finishing at instant t frees its
// unit before a load decision at the same instant), then by insertion
// order.
func (e Event) before(f Event) bool {
	if e.Time != f.Time {
		return e.Time < f.Time
	}
	if e.Kind != f.Kind {
		return e.Kind < f.Kind
	}
	return e.seq < f.seq
}

// Engine owns the simulated clock and the pending-event queue.
// The zero value is ready to use.
type Engine struct {
	now     simtime.Time
	heap    []Event
	nextSeq uint64
	popped  uint64
}

// Reset rewinds the engine to its zero state — empty queue, clock at
// zero, popped counter cleared — while keeping the heap's backing array,
// so a reused engine schedules into warm memory instead of re-growing the
// queue from nil. capacity is a pre-size hint (typically the most events
// a run has in flight at once); the backing array only ever grows.
func (e *Engine) Reset(capacity int) {
	if capacity > cap(e.heap) {
		e.heap = make([]Event, 0, capacity)
	} else {
		e.heap = e.heap[:0]
	}
	e.now = 0
	e.nextSeq = 0
	e.popped = 0
}

// Now returns the current simulated time: the timestamp of the most
// recently popped event.
func (e *Engine) Now() simtime.Time { return e.now }

// Len returns the number of pending events.
func (e *Engine) Len() int { return len(e.heap) }

// Popped returns how many events have been processed so far.
func (e *Engine) Popped() uint64 { return e.popped }

// Schedule enqueues an event at time at. Scheduling into the past is a
// programming error and panics: the simulation would otherwise silently
// produce causality violations.
func (e *Engine) Schedule(at simtime.Time, k Kind, task taskgraph.TaskID, ru int) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %s at %v before now %v", k, at, e.now))
	}
	ev := Event{Time: at, Kind: k, Task: task, RU: ru, seq: e.nextSeq}
	e.nextSeq++
	e.push(ev)
}

// ScheduleArrival enqueues a NewTaskGraph event carrying the arrival index.
func (e *Engine) ScheduleArrival(at simtime.Time, index int) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling arrival at %v before now %v", at, e.now))
	}
	ev := Event{Time: at, Kind: NewTaskGraph, RU: -1, Arg: index, seq: e.nextSeq}
	e.nextSeq++
	e.push(ev)
}

// Pop removes and returns the next event, advancing the clock to its
// timestamp. ok is false when the queue is empty.
func (e *Engine) Pop() (ev Event, ok bool) {
	if len(e.heap) == 0 {
		return Event{}, false
	}
	ev = e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0)
	}
	e.now = ev.Time
	e.popped++
	return ev, true
}

// Peek returns the next event without removing it.
func (e *Engine) Peek() (Event, bool) {
	if len(e.heap) == 0 {
		return Event{}, false
	}
	return e.heap[0], true
}

// push inserts an event, restoring the heap property.
func (e *Engine) push(ev Event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heap[i].before(e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && e.heap[l].before(e.heap[best]) {
			best = l
		}
		if r < n && e.heap[r].before(e.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		e.heap[i], e.heap[best] = e.heap[best], e.heap[i]
		i = best
	}
}
