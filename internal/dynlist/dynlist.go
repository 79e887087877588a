// Package dynlist implements the paper's Dynamic List (DL): the run-time
// FIFO queue of applications waiting to execute (Fig. 1). The running
// application is not part of the DL; Local LFD's lookahead window is a
// prefix of the DL.
//
// Applications enter the DL from an arrival list: a []Item, known in full
// before the run, in arrival order. A static benchmark sequence (the
// paper's 500-application experiments) is a list whose arrivals all occur
// at time zero; dynamic scenarios use later timestamps, reproducing the
// behaviour of Fig. 1 where new applications are enqueued while others
// run.
package dynlist

import (
	"fmt"
	"math/rand"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// Item is one enqueued application instance.
type Item struct {
	Graph    *taskgraph.Graph
	Arrival  simtime.Time
	Instance int // position in the overall arrival order
}

// List is the Dynamic List proper. The zero value is an empty list.
//
// The list is a head-indexed queue over one backing array: PopFront
// advances the head instead of re-slicing the storage away, and the array
// rewinds whenever the queue drains, so a long simulation pushing and
// popping hundreds of arrivals reuses the same memory instead of growing
// a fresh tail after every drain.
type List struct {
	items []Item
	head  int
}

// Push appends an item (FIFO, as in the paper's Fig. 1).
func (l *List) Push(it Item) {
	if l.head == len(l.items) && l.head > 0 {
		// Drained: rewind onto the existing backing array.
		l.items = l.items[:0]
		l.head = 0
	}
	l.items = append(l.items, it)
}

// PopFront removes and returns the head of the list.
func (l *List) PopFront() (Item, bool) {
	if l.head == len(l.items) {
		return Item{}, false
	}
	it := l.items[l.head]
	l.items[l.head] = Item{} // drop the Graph reference
	l.head++
	return it, true
}

// Len returns the number of enqueued applications.
func (l *List) Len() int { return len(l.items) - l.head }

// At returns the i-th enqueued item (0 = head).
func (l *List) At(i int) Item { return l.items[l.head+i] }

// Reset empties the list, keeping the backing array for reuse.
func (l *List) Reset() {
	clear(l.items)
	l.items = l.items[:0]
	l.head = 0
}

// NewSequence returns the arrivals of graphs in order, all at time zero —
// the shape of the paper's 500-application experiments.
func NewSequence(graphs ...*taskgraph.Graph) []Item {
	items := make([]Item, len(graphs))
	for i, g := range graphs {
		items[i] = Item{Graph: g, Instance: i}
	}
	return items
}

// NewTimed checks explicit arrivals and numbers them in place: every item
// needs a graph, arrival times must be non-decreasing, and Instance is set
// to the item's position. It returns items.
func NewTimed(items []Item) ([]Item, error) {
	var prev simtime.Time
	for i := range items {
		if items[i].Graph == nil {
			return nil, fmt.Errorf("dynlist: arrival %d has nil graph", i)
		}
		if items[i].Arrival < prev {
			return nil, fmt.Errorf("dynlist: arrival %d at %v precedes arrival %d at %v",
				i, items[i].Arrival, i-1, prev)
		}
		prev = items[i].Arrival
		items[i].Instance = i
	}
	return items, nil
}

// RandomSequence draws n graphs uniformly from the pool using rng — the
// paper's "sequence of 500 applications randomly selected from our set of
// benchmarks".
func RandomSequence(pool []*taskgraph.Graph, n int, rng *rand.Rand) ([]*taskgraph.Graph, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("dynlist: empty graph pool")
	}
	if n < 1 {
		return nil, fmt.Errorf("dynlist: need n ≥ 1, got %d", n)
	}
	graphs := make([]*taskgraph.Graph, n)
	for i := range graphs {
		graphs[i] = pool[rng.Intn(len(pool))]
	}
	return graphs, nil
}
