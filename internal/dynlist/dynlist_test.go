package dynlist

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

func g(name string, first taskgraph.TaskID, n int) *taskgraph.Graph {
	execs := make([]simtime.Time, n)
	for i := range execs {
		execs[i] = ms(1)
	}
	return taskgraph.Chain(name, first, execs...)
}

func TestListFIFO(t *testing.T) {
	var l List
	if _, ok := l.PopFront(); ok {
		t.Error("pop from empty list")
	}
	a, b := g("a", 1, 2), g("b", 10, 3)
	l.Push(Item{Graph: a, Instance: 0})
	l.Push(Item{Graph: b, Instance: 1})
	if l.Len() != 2 || l.At(0).Graph != a || l.At(1).Graph != b {
		t.Fatalf("list state wrong: len=%d", l.Len())
	}
	it, ok := l.PopFront()
	if !ok || it.Graph != a {
		t.Errorf("pop = %v", it.Graph)
	}
	it, ok = l.PopFront()
	if !ok || it.Graph != b {
		t.Errorf("pop = %v", it.Graph)
	}
	if l.Len() != 0 {
		t.Error("list not empty")
	}
}

func TestNewSequence(t *testing.T) {
	a, b := g("a", 1, 1), g("b", 10, 1)
	items := NewSequence(a, b)
	want := []Item{{Graph: a, Instance: 0}, {Graph: b, Instance: 1}}
	if !slices.Equal(items, want) {
		t.Errorf("NewSequence = %+v, want %+v", items, want)
	}
}

func TestNewTimed(t *testing.T) {
	a := g("a", 1, 1)
	in := []Item{
		{Graph: a, Arrival: ms(0), Instance: 7},
		{Graph: a, Arrival: ms(5)},
		{Graph: a, Arrival: ms(5)},
	}
	items, err := NewTimed(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Instance != i {
			t.Errorf("item %d numbered %d", i, it.Instance)
		}
	}
	if &items[0] != &in[0] {
		t.Error("NewTimed copied the items instead of numbering them in place")
	}

	if _, err := NewTimed([]Item{{Graph: a, Arrival: ms(5)}, {Graph: a, Arrival: ms(1)}}); err == nil {
		t.Error("decreasing arrivals accepted")
	}
	if _, err := NewTimed([]Item{{Graph: nil}}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestRandomSequence(t *testing.T) {
	pool := []*taskgraph.Graph{g("a", 1, 1), g("b", 10, 2), g("c", 20, 3)}
	s1, err := RandomSequence(pool, 100, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := RandomSequence(pool, 100, rand.New(rand.NewSource(5)))
	if len(s1) != 100 {
		t.Fatalf("len = %d", len(s1))
	}
	if !slices.Equal(s1, s2) {
		t.Fatal("same seed diverged")
	}
	seen := map[string]bool{}
	for _, graph := range s1 {
		seen[graph.Name()] = true
	}
	if len(seen) != 3 {
		t.Errorf("only %d of 3 graphs drawn in 100 samples", len(seen))
	}

	if _, err := RandomSequence(nil, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := RandomSequence(pool, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRandomArrivals(t *testing.T) {
	pool := []*taskgraph.Graph{g("a", 1, 1), g("b", 10, 2)}
	items, err := RandomArrivals(pool, 50, ms(20), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 50 {
		t.Fatalf("len = %d", len(items))
	}
	if items[0].Arrival != 0 {
		t.Errorf("first arrival at %v, want 0", items[0].Arrival)
	}
	var prev simtime.Time
	var total simtime.Time
	for i, it := range items {
		if it.Arrival < prev {
			t.Fatalf("arrival %d at %v before %v", i, it.Arrival, prev)
		}
		prev = it.Arrival
		if it.Instance != i {
			t.Errorf("instance %d numbered %d", i, it.Instance)
		}
	}
	total = items[len(items)-1].Arrival
	// Mean gap 20 ms over 49 gaps: expect the span in a loose
	// [300, 3000] ms band (exponential spread).
	if total < ms(300) || total > ms(3000) {
		t.Errorf("span %v implausible for mean gap 20 ms", total)
	}
	// Deterministic per seed.
	items2, _ := RandomArrivals(pool, 50, ms(20), rand.New(rand.NewSource(4)))
	if !slices.Equal(items, items2) {
		t.Fatal("seeded arrivals diverged")
	}
	// Zero gap means everything arrives at once.
	items3, err := RandomArrivals(pool, 5, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items3 {
		if it.Arrival != 0 {
			t.Errorf("zero-gap arrival at %v", it.Arrival)
		}
	}
	// Validation.
	if _, err := RandomArrivals(nil, 5, ms(1), rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := RandomArrivals(pool, 0, ms(1), rand.New(rand.NewSource(1))); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RandomArrivals(pool, 3, -ms(1), rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative gap accepted")
	}
}
