package experiments

import (
	"fmt"
	"io"

	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// WorstCase builds the paper's Table I measurement scenario for a given
// lookahead length: four replacement candidates whose configurations
// never occur in the lookahead, so every selection scans the entire
// future list once per candidate ("this search has to be carried out 4
// times").
type WorstCase struct {
	Request    policy.Request
	Candidates []policy.Candidate
}

// NewWorstCase constructs the scenario. lookahead is the visible future:
// for LFD the complete remaining 500-application request sequence, for
// Local LFD (w) the running graph's remainder plus w enqueued graphs.
func NewWorstCase(lookahead []taskgraph.TaskID) WorstCase {
	cands := make([]policy.Candidate, 4)
	for i := range cands {
		// Candidate IDs outside every benchmark's range: never found.
		cands[i] = policy.Candidate{
			RU:       i,
			Task:     taskgraph.TaskID(9000 + i),
			LastUse:  simtime.Time(i),
			LoadedAt: simtime.Time(i),
		}
	}
	return WorstCase{
		Request:    policy.Request{Task: 8999, Lookahead: lookahead},
		Candidates: cands,
	}
}

// NewLateHitCase is the cost-equivalent variant of the worst case for an
// implementation that (like ours) stops scanning once it finds a
// never-reused candidate: every candidate's configuration occurs, but only
// in the last four positions of the lookahead, so all four scans run the
// full list. The paper's implementation pays this cost in the absent-
// victim case; ours pays it here.
func NewLateHitCase(lookahead []taskgraph.TaskID) WorstCase {
	look := append([]taskgraph.TaskID(nil), lookahead...)
	wc := NewWorstCase(look)
	if n := len(look); n >= len(wc.Candidates) {
		for i, c := range wc.Candidates {
			look[n-len(wc.Candidates)+i] = c.Task
		}
	}
	wc.Request.Lookahead = look
	return wc
}

// FullFutureLookahead flattens a graph sequence into the request stream an
// LFD oracle would scan.
func FullFutureLookahead(seq []*taskgraph.Graph) []taskgraph.TaskID {
	var out []taskgraph.TaskID
	for _, g := range seq {
		out = append(out, g.RecSequenceIDs()...)
	}
	return out
}

// WindowLookahead builds the Local LFD (w) worst-case lookahead: the
// largest benchmark's remainder plus w full graphs.
func WindowLookahead(w int) []taskgraph.TaskID {
	return windowLookaheadFor(workload.Hough(), w)
}

// scanFuture is the paper's representation of the visible future: a
// slice searched front to back for each candidate ("the replacement
// module always has to search in the whole list"). It counts every
// entry it compares, so a decision's cost reads as work done.
type scanFuture struct {
	look     []taskgraph.TaskID
	compared int
}

func (f *scanFuture) Distance(task taskgraph.TaskID) int {
	for i, id := range f.look {
		f.compared++
		if id == task {
			return i
		}
	}
	return -1
}

// countDecision makes pol's decision on wc through a scanFuture over its
// lookahead and returns the number of lookahead entries compared.
func countDecision(pol policy.Policy, wc WorstCase) int {
	f := &scanFuture{look: wc.Request.Lookahead}
	req := wc.Request
	req.Future = f
	pol.SelectVictim(req, wc.Candidates)
	return f.compared
}

// TableIRow is one counted policy.
type TableIRow struct {
	Name string
	// Ops is the work of one worst-case decision: candidates examined
	// plus lookahead entries compared.
	Ops        int
	PaperMs    float64 // the paper's PowerPC@100MHz measurement
	RatioToLRU float64 // Ops over LRU's Ops
}

// tableICase declares one counted policy: the sweep PolicySpec names it
// and constructs it, the lookahead shapes its worst case, and PaperMs is
// the paper's PowerPC measurement next to which it is reported.
type tableICase struct {
	spec    sweep.PolicySpec
	look    []taskgraph.TaskID
	paperMs float64
}

// tableICases builds the paper's five measured configurations, LRU first.
func tableICases(full []taskgraph.TaskID) []tableICase {
	return []tableICase{
		{sweep.Fixed("LRU", policy.NewLRU()), nil, 0.00720},
		{sweep.Fixed("LFD", policy.NewLFD()), full, 11.34983},
		{sweep.LocalLFD(1, true), WindowLookahead(1), 0.06028},
		{sweep.LocalLFD(2, true), WindowLookahead(2), 0.07412},
		{sweep.LocalLFD(4, true), WindowLookahead(4), 0.11020},
	}
}

// CountTableI counts each policy's victim selection in the worst case
// and returns rows in the paper's order. Every policy examines all four
// candidates there (LRU compares their use times, the LFD family asks
// each one's distance), so a row's Ops is the candidate count plus the
// entries its scans compared. The host time of the same decisions is
// BenchmarkTableI's.
func CountTableI(opt Options) ([]TableIRow, error) {
	opt = opt.normalized()
	seq, err := opt.sequence()
	if err != nil {
		return nil, err
	}
	cases := tableICases(FullFutureLookahead(seq))
	rows := make([]TableIRow, 0, len(cases))
	for _, c := range cases {
		pol, err := c.spec.New()
		if err != nil {
			return nil, err
		}
		// The late-hit variant makes each candidate's scan run the full
		// list, the cost of the paper's implementation (which cannot
		// short-circuit); see NewLateHitCase.
		wc := NewLateHitCase(c.look)
		ops := len(wc.Candidates) + countDecision(pol, wc)
		rows = append(rows, TableIRow{Name: c.spec.Name, Ops: ops, PaperMs: c.paperMs})
	}
	for i := range rows {
		rows[i].RatioToLRU = float64(rows[i].Ops) / float64(rows[0].Ops)
	}
	return rows, nil
}

// TableI writes the Table I report: the work of one worst-case
// replacement decision, counted, next to the paper's PowerPC times and
// the policy-to-LRU ratios of both.
func TableI(opt Options, w io.Writer) error {
	rows, err := CountTableI(opt)
	if err != nil {
		return err
	}
	section(w, "Table I — worst-case run-time delay of the replacement decision")
	fmt.Fprintf(w, "%-30s %12s %12s %14s %12s\n",
		"policy", "operations", "ratio", "paper ms", "paper ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %12d %12.1f %14.5f %12.1f\n",
			r.Name, r.Ops, r.RatioToLRU, r.PaperMs, r.PaperMs/rows[0].PaperMs)
	}
	fmt.Fprintln(w, "\noperations: candidates examined + lookahead entries compared; ratios are to LRU.")
	fmt.Fprintln(w, "expected shape: LRU ≪ Local LFD (1) < (2) < (4) ≪ LFD; the paper's")
	fmt.Fprintln(w, "LFD/LRU ratio is ~1576×, its Local LFD(1)/LRU ratio ~8.4×.")
	fmt.Fprintln(w, "(host time per decision: BenchmarkTableI)")
	return nil
}
