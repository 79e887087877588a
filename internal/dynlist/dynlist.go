// Package dynlist implements the paper's Dynamic List (DL): the run-time
// FIFO queue of applications waiting to execute (Fig. 1). The running
// application is not part of the DL; Local LFD's lookahead window is a
// prefix of the DL.
//
// Applications enter the DL through a Feed — a source of time-stamped
// arrivals. A static benchmark sequence (the paper's 500-application
// experiments) is a feed whose arrivals all occur at time zero; dynamic
// scenarios use later timestamps, reproducing the behaviour of Fig. 1
// where new applications are enqueued while others run.
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

// Feed is a source of arrivals with non-decreasing timestamps.
type Feed interface {
	// Next returns the next arrival. ok is false when the feed is
	// exhausted.
	Next() (it Item, ok bool)
}

// Oracle is implemented by feeds whose complete future is known in
// advance; the clairvoyant LFD policy needs it.
type Oracle interface {
	Feed
	// Remaining returns the arrivals not yet handed out by Next, in
	// order. The caller must not modify the result.
	Remaining() []Item
}

// SliceFeed is a Feed over a pre-built arrival list. It implements Oracle.
type SliceFeed struct {
	items []Item
	pos   int
}

var _ Oracle = (*SliceFeed)(nil)

// NewSequence builds a feed where every graph arrives at time zero, in
// order — the shape of the paper's 500-application experiments.
func NewSequence(graphs ...*taskgraph.Graph) *SliceFeed {
	items := make([]Item, len(graphs))
	for i, g := range graphs {
		items[i] = Item{Graph: g, Instance: i}
	}
	return &SliceFeed{items: items}
}

// NewTimed builds a feed from explicit arrivals. Arrival times must be
// non-decreasing; instances are renumbered in order. The feed takes
// ownership of arrivals: it renumbers them in place and reads them on
// every run, so the caller must not modify the slice afterwards.
func NewTimed(items []Item) (*SliceFeed, error) {
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
	return &SliceFeed{items: items}, nil
}

// Next implements Feed.
func (f *SliceFeed) Next() (Item, bool) {
	if f.pos >= len(f.items) {
		return Item{}, false
	}
	it := f.items[f.pos]
	f.pos++
	return it, true
}

// Remaining implements Oracle.
func (f *SliceFeed) Remaining() []Item { return f.items[f.pos:] }

// Rewind restarts the feed from its first arrival and returns the feed,
// so one arrival list can drive many runs (a pooled runner re-simulating
// a scenario, a benchmark iterating) without rebuilding it.
func (f *SliceFeed) Rewind() *SliceFeed {
	f.pos = 0
	return f
}

// Len returns the total number of arrivals in the feed.
func (f *SliceFeed) Len() int { return len(f.items) }

// RandomSequence draws n graphs uniformly from the pool using rng — the
// paper's "sequence of 500 applications randomly selected from our set of
// benchmarks".
func RandomSequence(pool []*taskgraph.Graph, n int, rng *rand.Rand) (*SliceFeed, error) {
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
	return NewSequence(graphs...), nil
}
