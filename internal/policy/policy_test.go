package policy

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

func cand(ru int, task taskgraph.TaskID, lastUse, loadedAt float64) Candidate {
	return Candidate{RU: ru, Task: task, LastUse: ms(lastUse), LoadedAt: ms(loadedAt)}
}

func ids(xs ...int) []taskgraph.TaskID {
	out := make([]taskgraph.TaskID, len(xs))
	for i, x := range xs {
		out[i] = taskgraph.TaskID(x)
	}
	return out
}

func TestLRU(t *testing.T) {
	p := NewLRU()
	if p.Name() != "LRU" || p.Window() != WindowNone {
		t.Errorf("meta: %s/%d", p.Name(), p.Window())
	}
	cands := []Candidate{
		cand(0, 1, 6.5, 0),
		cand(1, 2, 10.5, 4),
		cand(2, 3, 16, 8),
	}
	d := p.SelectVictim(Request{Task: 5}, cands)
	if d.RU != 0 || d.Victim != 1 {
		t.Errorf("LRU chose ru=%d victim=%d, want ru=0 victim=1", d.RU, d.Victim)
	}
	if d.Reusable {
		t.Error("no lookahead ⇒ not reusable")
	}
}

func TestLRUTieBreaksToFirst(t *testing.T) {
	p := NewLRU()
	cands := []Candidate{cand(2, 9, 5, 0), cand(3, 8, 5, 1)}
	d := p.SelectVictim(Request{}, cands)
	if d.RU != 2 {
		t.Errorf("tie should pick first candidate, got ru=%d", d.RU)
	}
}

func TestMRU(t *testing.T) {
	p := NewMRU()
	cands := []Candidate{cand(0, 1, 6.5, 0), cand(1, 2, 10.5, 4)}
	d := p.SelectVictim(Request{}, cands)
	if d.Victim != 2 {
		t.Errorf("MRU chose %d, want 2", d.Victim)
	}
}

func TestFIFO(t *testing.T) {
	p := NewFIFO()
	cands := []Candidate{
		cand(0, 1, 50, 30), // recently loaded
		cand(1, 2, 60, 10), // oldest load, most recently used
	}
	d := p.SelectVictim(Request{}, cands)
	if d.Victim != 2 {
		t.Errorf("FIFO chose %d, want 2 (oldest load)", d.Victim)
	}
}

func TestRandomDeterminism(t *testing.T) {
	cands := []Candidate{cand(0, 1, 0, 0), cand(1, 2, 0, 0), cand(2, 3, 0, 0)}
	a, b := NewRandom(7), NewRandom(7)
	for i := 0; i < 50; i++ {
		da := a.SelectVictim(Request{}, cands)
		db := b.SelectVictim(Request{}, cands)
		if da.RU != db.RU {
			t.Fatalf("iteration %d: same seed diverged (%d vs %d)", i, da.RU, db.RU)
		}
	}
}

func TestLFDFarthestWins(t *testing.T) {
	p := NewLFD()
	if p.Window() != WindowAll {
		t.Errorf("LFD window = %d", p.Window())
	}
	// Paper Fig. 2b, first replacement: loading task 5, candidates tasks
	// 1,2,3; future = [4,5,1,2,3,4,5]. Task 3 is farthest ⇒ evicted.
	cands := []Candidate{cand(0, 1, 0, 0), cand(1, 2, 0, 0), cand(2, 3, 0, 0)}
	d := p.SelectVictim(Request{Task: 5, Lookahead: ids(4, 5, 1, 2, 3, 4, 5)}, cands)
	if d.Victim != 3 || d.RU != 2 {
		t.Errorf("victim = %d on ru %d, want task 3 on ru 2", d.Victim, d.RU)
	}
	if !d.Reusable || d.Distance != 4 {
		t.Errorf("distance = %d reusable = %v, want 4,true", d.Distance, d.Reusable)
	}
}

func TestLFDInfinitePreferred(t *testing.T) {
	p := NewLFD()
	// Task 9 never occurs again: must be evicted even though task 1 is
	// farther among the finite ones.
	cands := []Candidate{cand(0, 1, 0, 0), cand(1, 9, 0, 0), cand(2, 2, 0, 0)}
	d := p.SelectVictim(Request{Lookahead: ids(2, 1)}, cands)
	if d.Victim != 9 {
		t.Errorf("victim = %d, want 9 (absent from future)", d.Victim)
	}
	if d.Reusable || d.Distance != -1 {
		t.Errorf("absent victim: distance=%d reusable=%v", d.Distance, d.Reusable)
	}
}

func TestLFDAllInfiniteTieBreak(t *testing.T) {
	// Paper Fig. 2c: candidates 1,2,3 all absent from DL ⇒ "Local LFD
	// selects the first candidate it finds" (unit order).
	p, err := NewLocalLFD(1)
	if err != nil {
		t.Fatal(err)
	}
	cands := []Candidate{cand(0, 1, 0, 0), cand(1, 2, 0, 0), cand(2, 3, 0, 0)}
	d := p.SelectVictim(Request{Lookahead: ids(4, 5)}, cands)
	if d.RU != 0 || d.Victim != 1 {
		t.Errorf("victim = task %d on ru %d, want task 1 on ru 0", d.Victim, d.RU)
	}
}

func TestLFDFiniteTieBreakToFirst(t *testing.T) {
	p := NewLFD()
	// Two candidates of the same task id cannot happen, but equal
	// distances can't either (first occurrence is unique per id); test
	// nonetheless that strict improvement is required via equal-distance
	// construction: both tasks first occur at... distinct indices, so
	// craft adjacent ones and ensure max wins not last.
	cands := []Candidate{cand(0, 1, 0, 0), cand(1, 2, 0, 0)}
	d := p.SelectVictim(Request{Lookahead: ids(2, 1)}, cands)
	if d.Victim != 1 {
		t.Errorf("victim = %d, want 1 (distance 1 > 0)", d.Victim)
	}
}

func TestLocalLFDWindowValidation(t *testing.T) {
	if _, err := NewLocalLFD(0); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := NewLocalLFD(-1); err == nil {
		t.Error("window -1 accepted")
	}
	p, err := NewLocalLFD(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Window() != 4 || p.Name() != "Local LFD (4)" {
		t.Errorf("meta: %q/%d", p.Name(), p.Window())
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec    string
		name    string
		window  int
		wantErr bool
	}{
		{"lru", "LRU", WindowNone, false},
		{"LRU", "LRU", WindowNone, false},
		{"mru", "MRU", WindowNone, false},
		{"fifo", "FIFO", WindowNone, false},
		{"random", "Random", WindowNone, false},
		{"random:42", "Random", WindowNone, false},
		{"random:x", "", 0, true},
		{"lfd", "LFD", WindowAll, false},
		{"locallfd:2", "Local LFD (2)", 2, false},
		{"locallfd", "", 0, true},
		{"locallfd:0", "", 0, true},
		{"locallfd:abc", "", 0, true},
		{"belady", "", 0, true},
		{"", "", 0, true},
	}
	for _, tt := range cases {
		p, err := Parse(tt.spec)
		if (err != nil) != tt.wantErr {
			t.Errorf("Parse(%q) err = %v, wantErr = %v", tt.spec, err, tt.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if p.Name() != tt.name || p.Window() != tt.window {
			t.Errorf("Parse(%q) = %q/%d, want %q/%d", tt.spec, p.Name(), p.Window(), tt.name, tt.window)
		}
	}
}

func TestScanDistanceWorstCase(t *testing.T) {
	// The Table I worst case: the candidate never occurs, so the whole
	// lookahead is scanned. Verify -1 on a long miss and correct index on
	// a late hit.
	look := make([]taskgraph.TaskID, 2500)
	for i := range look {
		look[i] = taskgraph.TaskID(i%15 + 100)
	}
	if d := scanDistance(99, look); d != -1 {
		t.Errorf("missing task distance = %d", d)
	}
	look[2499] = 99
	if d := scanDistance(99, look); d != 2499 {
		t.Errorf("late hit distance = %d", d)
	}
}
