// Package policy implements the configuration replacement policies the
// paper compares:
//
//   - LRU, FIFO, MRU, Random — classic cache-style baselines that ignore
//     the future (the paper evaluates LRU; the others are included as
//     additional baselines).
//   - LFD — Belady's longest-forward-distance policy [Belady 1966], the
//     clairvoyant upper bound on reuse; it sees the entire remaining
//     request sequence.
//   - Local LFD — the paper's contribution: LFD restricted to the window
//     of knowledge actually available at run time, i.e. the remainder of
//     the running graph's reconfiguration sequence plus the task graphs
//     currently enqueued in the Dynamic List.
//
// A policy only chooses a victim among the candidates the execution
// manager deems replaceable; the skip-events mechanism (Fig. 8) is applied
// by the manager on top of the policy's decision, using the reusability
// information the forward distances carry.
//
// A Request describes the visible future in one of two equivalent ways.
// The simulation passes Request.Future, a next-use oracle that answers
// each forward-distance query in amortized constant time, so a run's cost
// does not grow with the length of the future. Request.Lookahead is the
// representation the paper describes and times in Table I ("the
// replacement module always has to search in the whole list"): the future
// as a slice, where each candidate's distance is found by a linear scan,
// front to back. Policies scan it when Future is nil, which is how the
// root benchmarks time the paper's run-time cost (the Table I/II reports
// count the same scan through a Future of their own). Both yield the
// same distances, so they yield the same decisions.
package policy

import (
	"fmt"
	"math/rand"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// WindowAll requests the entire remaining request sequence (clairvoyant
// LFD). WindowNone requests no lookahead at all.
const (
	WindowAll  = -1
	WindowNone = 0
)

// Candidate describes one replaceable unit at decision time.
type Candidate struct {
	RU       int              // unit index
	Task     taskgraph.TaskID // resident configuration
	LastUse  simtime.Time     // when it last finished executing (LRU key)
	LoadedAt simtime.Time     // when it was written (FIFO key)
}

// Future answers forward-distance queries over the request sequence
// visible to a policy.
type Future interface {
	// Distance returns the index of task's next occurrence in the visible
	// future, or -1 when it does not occur there.
	Distance(task taskgraph.TaskID) int
}

// Request is one replacement decision to make.
type Request struct {
	// Task is the configuration about to be loaded.
	Task taskgraph.TaskID
	// Now is the current simulation time.
	Now simtime.Time
	// Future, when non-nil, is the visible future as a next-use oracle;
	// it takes precedence over Lookahead. Its extent is governed by the
	// policy's Window: the manager exposes the remainder of the running
	// graph plus the Dynamic List window (or the full future for
	// WindowAll).
	Future Future
	// Lookahead is the same visible future as a slice, nearest first —
	// the paper's linear-scan representation. Policies scan it only when
	// Future is nil.
	Lookahead []taskgraph.TaskID
}

// distance returns task's forward distance in the request's future: the
// oracle's answer when there is one, else the result of scanning the
// lookahead.
func (req Request) distance(task taskgraph.TaskID) int {
	if req.Future != nil {
		return req.Future.Distance(task)
	}
	return scanDistance(task, req.Lookahead)
}

// Decision is the outcome of victim selection.
type Decision struct {
	// RU is the chosen victim unit.
	RU int
	// Victim is the configuration being evicted.
	Victim taskgraph.TaskID
	// Distance is the victim's forward distance: the index of its next
	// occurrence in the visible future, or -1 when it does not occur
	// (never reused as far as the policy can see). Policies with
	// WindowNone see no future and report -1.
	Distance int
	// Reusable reports whether the victim occurs in the visible future; the
	// manager's skip-events logic fires only for reusable victims.
	Reusable bool
}

// Forker is implemented by stateful policies whose decision state cannot
// be shared by concurrent simulations. Fork returns an independent
// equivalent instance: it replays the same decision stream from its
// initial state.
type Forker interface {
	Fork() Policy
}

// Fork returns a policy safe to hand to a second, concurrent run.
// Stateless policies are returned as-is; stateful ones (Random) are
// re-created from their initial state via Forker.
func Fork(p Policy) Policy {
	if f, ok := p.(Forker); ok {
		return f.Fork()
	}
	return p
}

// Resetter is implemented by stateful policies that can rewind their
// decision state to the initial one in place — the allocation-free
// counterpart of Forker for sequential reuse. Where Fork hands a fresh
// instance to a concurrent run, Reset lets a pooled runner reuse one
// instance across consecutive runs: after Reset the policy replays
// exactly the decision stream a newly constructed instance would.
type Resetter interface {
	Reset()
}

// Reset rewinds p to its initial decision state and reports whether it
// was stateful. Stateless policies (every policy here except Random) are
// trivially "reset"; stateful ones must implement Resetter. A reused
// runner calls this between runs so back-to-back simulations with one
// policy instance are byte-identical to simulations with fresh instances.
func Reset(p Policy) bool {
	if r, ok := p.(Resetter); ok {
		r.Reset()
		return true
	}
	return false
}

// Policy selects replacement victims.
type Policy interface {
	// Name identifies the policy in reports (e.g. "Local LFD (2)").
	Name() string
	// Window is the number of Dynamic List graphs the policy wants to
	// see: WindowNone, WindowAll, or a positive window size.
	Window() int
	// SelectVictim picks a victim among candidates. The manager
	// guarantees len(candidates) ≥ 1. Candidates arrive ordered by unit
	// index; ties must resolve to the earliest candidate so runs are
	// deterministic.
	SelectVictim(req Request, candidates []Candidate) Decision
}

// scanDistance returns the index of task's first occurrence in lookahead,
// or -1. This is the linear search the paper's Table I times.
func scanDistance(task taskgraph.TaskID, lookahead []taskgraph.TaskID) int {
	for i, id := range lookahead {
		if id == task {
			return i
		}
	}
	return -1
}

// decide fills a Decision for candidate c given its forward distance.
func decide(c Candidate, dist int) Decision {
	return Decision{RU: c.RU, Victim: c.Task, Distance: dist, Reusable: dist >= 0}
}

// --- LRU -----------------------------------------------------------------

type lru struct{}

// NewLRU returns the least-recently-used policy: evict the candidate whose
// configuration finished executing longest ago.
func NewLRU() Policy { return lru{} }

func (lru) Name() string { return "LRU" }
func (lru) Window() int  { return WindowNone }

func (lru) SelectVictim(req Request, cands []Candidate) Decision {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.LastUse < best.LastUse {
			best = c
		}
	}
	return decide(best, req.distance(best.Task))
}

// --- MRU -----------------------------------------------------------------

type mru struct{}

// NewMRU returns the most-recently-used policy (a known-adversarial
// baseline for looping reference patterns).
func NewMRU() Policy { return mru{} }

func (mru) Name() string { return "MRU" }
func (mru) Window() int  { return WindowNone }

func (mru) SelectVictim(req Request, cands []Candidate) Decision {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.LastUse > best.LastUse {
			best = c
		}
	}
	return decide(best, req.distance(best.Task))
}

// --- FIFO ----------------------------------------------------------------

type fifo struct{}

// NewFIFO returns the first-in-first-out policy: evict the configuration
// loaded longest ago, regardless of use.
func NewFIFO() Policy { return fifo{} }

func (fifo) Name() string { return "FIFO" }
func (fifo) Window() int  { return WindowNone }

func (fifo) SelectVictim(req Request, cands []Candidate) Decision {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.LoadedAt < best.LoadedAt {
			best = c
		}
	}
	return decide(best, req.distance(best.Task))
}

// --- Random --------------------------------------------------------------

type random struct {
	seed int64
	src  rand.Source
	rng  *rand.Rand
}

// NewRandom returns a uniformly random policy seeded for reproducibility.
func NewRandom(seed int64) Policy {
	src := rand.NewSource(seed)
	return &random{seed: seed, src: src, rng: rand.New(src)}
}

func (*random) Name() string { return "Random" }
func (*random) Window() int  { return WindowNone }

// Fork returns an independent Random replaying the same stream from the
// original seed, so a concurrent run cannot race on the shared generator.
func (r *random) Fork() Policy { return NewRandom(r.seed) }

// Reset rewinds the generator to the original seed in place — no fresh
// rand.Rand — so a pooled runner reusing this instance replays the same
// decision stream as a newly constructed one.
func (r *random) Reset() { r.src.Seed(r.seed) }

func (r *random) SelectVictim(req Request, cands []Candidate) Decision {
	c := cands[r.rng.Intn(len(cands))]
	return decide(c, req.distance(c.Task))
}

// --- LFD family ----------------------------------------------------------

// lfd implements longest-forward-distance over whatever future it is
// shown; the window distinguishes clairvoyant LFD from Local LFD.
type lfd struct {
	name   string
	window int
}

// NewLFD returns Belady's clairvoyant policy: longest forward distance
// over the complete remaining request sequence. It is the paper's
// reuse-optimal reference and is only realizable when the whole workload
// is known in advance.
func NewLFD() Policy { return &lfd{name: "LFD", window: WindowAll} }

// NewLocalLFD returns the paper's Local LFD with a Dynamic List window of
// w graphs (w ≥ 1). The policy sees the remainder of the running graph
// plus the next w enqueued graphs.
func NewLocalLFD(w int) (Policy, error) {
	if w < 1 {
		return nil, fmt.Errorf("policy: Local LFD window must be ≥ 1, got %d", w)
	}
	return &lfd{name: fmt.Sprintf("Local LFD (%d)", w), window: w}, nil
}

func (p *lfd) Name() string { return p.name }
func (p *lfd) Window() int  { return p.window }

// SelectVictim picks the candidate requested farthest in the future.
// Candidates absent from the visible future count as infinitely far; among
// those, and among equal finite distances, the first (lowest unit index)
// wins — the paper's Fig. 2c relies on exactly this tie-break ("Local LFD
// selects the first candidate it finds").
func (p *lfd) SelectVictim(req Request, cands []Candidate) Decision {
	best := cands[0]
	bestDist := req.distance(best.Task)
	if bestDist < 0 {
		// First candidate is already never-reused; nothing can beat it.
		return decide(best, bestDist)
	}
	for _, c := range cands[1:] {
		d := req.distance(c.Task)
		if d < 0 {
			return decide(c, d)
		}
		if d > bestDist {
			best, bestDist = c, d
		}
	}
	return decide(best, bestDist)
}
