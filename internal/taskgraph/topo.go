package taskgraph

import (
	"sort"

	"repro/internal/simtime"
)

// topoOrder returns a topological order of g's local indices using Kahn's
// algorithm with a deterministic (lowest-index-first) tie break, and
// reports whether the graph is acyclic.
func topoOrder(g *Graph) ([]int, bool) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.preds[i])
	}
	// ready is kept sorted ascending; n is small (graphs are a handful of
	// nodes), so linear insertion is fine and keeps the order stable.
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, s := range g.succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				at := sort.SearchInts(ready, s)
				ready = append(ready, 0)
				copy(ready[at+1:], ready[at:])
				ready[at] = s
			}
		}
	}
	return order, len(order) == n
}

// ASAPStarts returns, per local index, the earliest possible execution
// start assuming unlimited reconfigurable units and zero reconfiguration
// latency: start(i) = max over predecessors p of start(p)+exec(p).
func (g *Graph) ASAPStarts() []simtime.Time {
	order, _ := topoOrder(g)
	start := make([]simtime.Time, len(g.tasks))
	for _, i := range order {
		for _, p := range g.preds[i] {
			if f := start[p].Add(g.tasks[p].Exec); f.After(start[i]) {
				start[i] = f
			}
		}
	}
	return start
}

// CriticalPath returns the length of the longest execution-time path
// through the graph: the ideal makespan with unlimited units and free
// reconfiguration. The paper's Table II "Initial Execution Time" column is
// this quantity for each benchmark.
func (g *Graph) CriticalPath() simtime.Time {
	start := g.ASAPStarts()
	var m simtime.Time
	for i, t := range g.tasks {
		if f := start[i].Add(t.Exec); f.After(m) {
			m = f
		}
	}
	return m
}

// Levels groups local indices by ASAP depth: level 0 holds the roots,
// level k the tasks whose longest predecessor chain has k edges.
func (g *Graph) Levels() [][]int {
	order, _ := topoOrder(g)
	depth := make([]int, len(g.tasks))
	max := 0
	for _, i := range order {
		for _, p := range g.preds[i] {
			if depth[p]+1 > depth[i] {
				depth[i] = depth[p] + 1
			}
		}
		if depth[i] > max {
			max = depth[i]
		}
	}
	levels := make([][]int, max+1)
	for i, d := range depth {
		levels[d] = append(levels[d], i)
	}
	return levels
}

// Width returns the size of the largest level: the graph's peak potential
// parallelism.
func (g *Graph) Width() int {
	w := 0
	for _, l := range g.Levels() {
		if len(l) > w {
			w = len(l)
		}
	}
	return w
}

// defaultRecSequence orders loads by ASAP execution start, breaking ties by
// insertion (local index) order. For the paper's graphs, whose tasks are
// declared in execution order, this reproduces the paper's 1,2,…,n load
// order; for arbitrary graphs it is a sensible prefetch-friendly order
// (tasks needed sooner are loaded sooner) and always topological.
func defaultRecSequence(g *Graph, topo []int) []int {
	start := make([]simtime.Time, len(g.tasks))
	for _, i := range topo {
		for _, p := range g.preds[i] {
			if f := start[p].Add(g.tasks[p].Exec); f.After(start[i]) {
				start[i] = f
			}
		}
	}
	rec := make([]int, len(g.tasks))
	for i := range rec {
		rec[i] = i
	}
	sort.SliceStable(rec, func(a, b int) bool {
		if start[rec[a]] != start[rec[b]] {
			return start[rec[a]].Before(start[rec[b]])
		}
		return rec[a] < rec[b]
	})
	return rec
}
