package manager

import (
	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/taskgraph"
)

// future is a run's next-use index (Belady's classic construction) over
// the flattened reconfiguration sequence: the concatenation of every
// arrival's RecSequence in instance order. It answers a policy's
// forward-distance queries without materializing the lookahead the paper
// scans: a decision's visible future is the slice [cursor, end) of the
// flattened sequence, and a TaskID's distance is its next position at or
// past the cursor, minus the cursor — exactly its index in that slice.
//
// Cursors never decrease within a run, so nextUse advances lazily along
// nextPos and every position is passed at most once: the whole run costs
// O(N) on top of O(candidates) per decision.
type future struct {
	instStart []int // global offset of each instance; one extra entry holds N
	nextPos   []int // next position of the same TaskID after p, or N
	nextUse   []int // per TaskID: its first position not yet passed, or N

	cursor, end int
}

// build indexes arrivals in one backward pass, reusing the buffers of
// earlier runs.
func (f *future) build(arrivals []dynlist.Item, maxID taskgraph.TaskID) {
	f.instStart = resize(f.instStart, len(arrivals)+1)
	n := 0
	for i, it := range arrivals {
		f.instStart[i] = n
		n += len(it.Graph.RecSequence())
	}
	f.instStart[len(arrivals)] = n
	f.nextPos = resize(f.nextPos, n)
	f.nextUse = resize(f.nextUse, int(maxID)+1)
	for id := range f.nextUse {
		f.nextUse[id] = n
	}
	for i := len(arrivals) - 1; i >= 0; i-- {
		g := arrivals[i].Graph
		rec := g.RecSequence()
		for k := len(rec) - 1; k >= 0; k-- {
			p, id := f.instStart[i]+k, g.Task(rec[k]).ID
			f.nextPos[p] = f.nextUse[id]
			f.nextUse[id] = p
		}
	}
}

// Distance implements policy.Future: the index of id's next occurrence in
// the visible future, or -1 when it does not occur there.
func (f *future) Distance(id taskgraph.TaskID) int {
	p := f.nextUse[id]
	for p < f.cursor {
		p = f.nextPos[p]
	}
	f.nextUse[id] = p
	if p >= f.end {
		return -1
	}
	return p - f.cursor
}

// oracle positions the index at the decision about to be made and returns
// it. The visible future starts past the running graph's entry being
// decided (during cross-graph preloading that sequence is already
// exhausted) and ends after the policy's Dynamic List window, which holds
// the arrived instances following the running one — or, for the
// clairvoyant window, after every arrival. A policy that sees no future
// gets no oracle: start builds no index for it, and with neither Future
// nor Lookahead every distance is -1.
func (r *Runner) oracle() policy.Future {
	w := r.cfg.Policy.Window()
	if w == policy.WindowNone {
		return nil
	}
	c, f := r.cur, &r.fut
	f.cursor = f.instStart[c.item.Instance] + min(c.recPos+1, len(c.rec))
	if w == policy.WindowAll {
		f.end = f.instStart[len(r.arrivals)]
	} else {
		f.end = f.instStart[min(c.item.Instance+1+w, r.arrived)]
	}
	return f
}
