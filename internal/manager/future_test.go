package manager

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// referenceLookahead materializes the future visible to the running
// decision as the paper describes it, by concatenation: the remainder of
// the running graph's reconfiguration sequence beyond the entry being
// decided, then the Dynamic List window, then — for the clairvoyant
// window — every arrival still to come. It is the linear-scan
// representation the next-use index must agree with.
func referenceLookahead(r *Runner) []taskgraph.TaskID {
	w := r.cfg.Policy.Window()
	if w == policy.WindowNone {
		return nil
	}
	var look []taskgraph.TaskID
	appendRec := func(g *taskgraph.Graph, from int) {
		for _, li := range g.RecSequence()[from:] {
			look = append(look, g.Task(li).ID)
		}
	}
	c := r.cur
	if from := c.recPos + 1; from < len(c.rec) {
		appendRec(c.g, from)
	}
	n := r.dl.Len()
	if w != policy.WindowAll && w < n {
		n = w
	}
	for i := 0; i < n; i++ {
		appendRec(r.dl.At(i).Graph, 0)
	}
	if w == policy.WindowAll {
		for _, it := range r.arrivals[r.arrived:] {
			appendRec(it.Graph, 0)
		}
	}
	return look
}

// scanChecked wraps a policy and asserts, at every decision, that the
// manager's next-use oracle reports each candidate's forward distance
// exactly as a scan of the reference lookahead does, and that the
// decision the policy takes on the oracle equals the one it takes on the
// scan.
type scanChecked struct {
	policy.Policy
	t *testing.T
	r *Runner

	decisions, reusable, partial int
}

func (p *scanChecked) SelectVictim(req policy.Request, cands []policy.Candidate) policy.Decision {
	p.t.Helper()
	if blind := p.Window() == policy.WindowNone; blind != (req.Future == nil) {
		p.t.Fatalf("window %d: manager passed oracle %v", p.Window(), req.Future)
	}
	look := referenceLookahead(p.r)
	for _, c := range cands {
		want := -1
		for i, id := range look {
			if id == c.Task {
				want = i
				break
			}
		}
		got := -1
		if req.Future != nil {
			got = req.Future.Distance(c.Task)
		}
		if got != want {
			p.t.Fatalf("decision %d (%s): distance of task %d = %d, scan says %d",
				p.decisions, p.Name(), c.Task, got, want)
		}
	}
	got := p.Policy.SelectVictim(req, cands)
	want := p.Policy.SelectVictim(policy.Request{Task: req.Task, Now: req.Now, Lookahead: look}, cands)
	if got != want {
		p.t.Fatalf("decision %d (%s): oracle chose %+v, scan chose %+v", p.decisions, p.Name(), got, want)
	}
	p.decisions++
	if got.Reusable {
		p.reusable++
	}
	if w := p.Window(); w > 0 && p.r.arrived < len(p.r.arrivals) && p.r.dl.Len() < w {
		p.partial++ // the window reaches past the arrivals so far
	}
	return got
}

func (p *scanChecked) Reset() { policy.Reset(p.Policy) }

// TestFutureMatchesLookahead is the equivalence property behind the
// next-use index: across random workloads, every replacement decision —
// unit, victim, forward distance, reusability — equals the one the
// paper's linear scan of the materialized lookahead yields. It cycles
// Local LFD windows 1, 2, 4 and the clairvoyant one (plus LRU, which sees
// no future); skip-events; cross-graph prefetch, greedy and conservative;
// timed arrivals with gaps, so the Dynamic List window is often only
// partly filled; and one Runner reused across every trial.
func TestFutureMatchesLookahead(t *testing.T) {
	rng := rand.New(rand.NewSource(20110516))
	windows := []int{1, 2, 4, policy.WindowAll, policy.WindowNone}
	reused := NewRunner()
	var decisions, reusable, partial int
	for trial := 0; trial < 200; trial++ {
		seq := randomWorkload(t, rng, 1+rng.Intn(4), 1+rng.Intn(14))
		var inner policy.Policy
		switch w := windows[trial%len(windows)]; w {
		case policy.WindowAll:
			inner = policy.NewLFD()
		case policy.WindowNone:
			inner = policy.NewLRU()
		default:
			inner = mustLocalLFD(t, w)
		}
		cfg := Config{
			RUs:         1 + rng.Intn(5),
			Latency:     simtime.Time(rng.Int63n(int64(simtime.FromMs(6)))),
			RecordTrace: true,
		}
		switch (trial / len(windows)) % 4 {
		case 1:
			cfg.SkipEvents = true
			mob := make(map[*taskgraph.Graph][]int)
			for _, g := range seq {
				if _, ok := mob[g]; !ok {
					vals := make([]int, g.NumTasks())
					for i := range vals {
						vals[i] = rng.Intn(3)
					}
					mob[g] = vals
				}
			}
			cfg.Mobility = func(g *taskgraph.Graph) []int { return mob[g] }
		case 2:
			cfg.CrossGraphPrefetch = true
		case 3:
			cfg.CrossGraphPrefetch = true
			cfg.ConservativePrefetch = true
		}
		timed := trial%2 == 1
		items := make([]dynlist.Item, len(seq))
		var at simtime.Time
		for i, g := range seq {
			if timed {
				at += simtime.Time(rng.Int63n(int64(simtime.FromMs(30))))
			}
			items[i] = dynlist.Item{Graph: g, Arrival: at}
		}
		for _, r := range []*Runner{NewRunner(), reused} {
			p := &scanChecked{Policy: inner, t: t, r: r}
			cfg.Policy = p
			arrivals, err := dynlist.NewTimed(items)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(cfg, arrivals); err != nil {
				t.Fatalf("trial %d (%s): %v", trial, inner.Name(), err)
			}
			decisions += p.decisions
			reusable += p.reusable
			partial += p.partial
		}
	}
	t.Logf("%d decisions, %d reusable, %d with a partly filled window", decisions, reusable, partial)
	// The property must not hold vacuously.
	if decisions < 1000 || reusable == 0 || reusable == decisions || partial == 0 {
		t.Errorf("weak coverage: %d decisions, %d reusable, %d with a partly filled window",
			decisions, reusable, partial)
	}
}

// TestStartRejectsOutOfOrderArrivals pins the invariant the next-use
// index relies on: arrivals come in instance order with non-decreasing
// times, and a list that breaks it is refused with an error naming the
// offending arrival — before anything is simulated. Runner.Ideal refuses
// it with the same error.
func TestStartRejectsOutOfOrderArrivals(t *testing.T) {
	a := taskgraph.Chain("a", 1, ms(5))
	b := taskgraph.Chain("b", 11, ms(5))
	cases := map[string][]dynlist.Item{
		"instance": {{Graph: a, Instance: 0}, {Graph: b, Instance: 0}},
		"time": {
			{Graph: a, Arrival: ms(10), Instance: 0},
			{Graph: b, Arrival: ms(5), Instance: 1},
		},
	}
	for name, items := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := NewRunner().Run(Config{RUs: 2, Latency: ms(4), Policy: policy.NewLFD()}, items)
			if err == nil {
				t.Fatal("out-of-order arrivals accepted")
			}
			if !strings.Contains(err.Error(), "arrival 1") {
				t.Errorf("error %q does not name arrival 1", err)
			}
			if _, idealErr := NewRunner().Ideal(2, items); idealErr == nil || idealErr.Error() != err.Error() {
				t.Errorf("Ideal error %v, want Run's %q", idealErr, err)
			}
		})
	}
	// The same graphs in order run fine.
	inOrder := []dynlist.Item{{Graph: a, Instance: 0}, {Graph: b, Arrival: ms(5), Instance: 1}}
	res, err := NewRunner().Run(Config{RUs: 2, Latency: ms(4), Policy: policy.NewLFD()}, inOrder)
	if err != nil || !reflect.DeepEqual(res.Completions, []simtime.Time{ms(9), ms(18)}) {
		t.Fatalf("in-order arrivals: %v, %v", res, err)
	}
}
