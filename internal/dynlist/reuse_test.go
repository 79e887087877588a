package dynlist

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// TestListReusesBackingArray: steady push/pop churn over a drained list
// runs on one backing array — no allocation once warm.
func TestListReusesBackingArray(t *testing.T) {
	g := taskgraph.Chain("g", 1, simtime.FromMs(1))
	var l List
	warm := func() {
		for i := 0; i < 16; i++ {
			l.Push(Item{Graph: g, Instance: i})
		}
		for {
			if _, ok := l.PopFront(); !ok {
				break
			}
		}
	}
	warm()
	if avg := testing.AllocsPerRun(20, warm); avg != 0 {
		t.Errorf("warm push/pop cycle allocates %.1f times, want 0", avg)
	}
}

// TestListReset empties the list in place.
func TestListReset(t *testing.T) {
	g := taskgraph.Chain("g", 1, simtime.FromMs(1))
	var l List
	l.Push(Item{Graph: g})
	l.Push(Item{Graph: g})
	l.PopFront()
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("len = %d after Reset", l.Len())
	}
	if _, ok := l.PopFront(); ok {
		t.Error("PopFront succeeded on reset list")
	}
	l.Push(Item{Graph: g, Instance: 9})
	if it := l.At(0); it.Instance != 9 {
		t.Errorf("At(0).Instance = %d after Reset+Push", it.Instance)
	}
}
