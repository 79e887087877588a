package taskgraph

import (
	"strings"
	"testing"

	"repro/internal/simtime"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

// fig2TG1 is Task Graph 1 of the paper's Fig. 2: chain 1(2.5)→2(2.5)→3(4).
func fig2TG1(t *testing.T) *Graph {
	t.Helper()
	return Chain("fig2-tg1", 1, ms(2.5), ms(2.5), ms(4))
}

func TestBuilderBasics(t *testing.T) {
	g := fig2TG1(t)
	if g.NumTasks() != 3 {
		t.Fatalf("NumTasks = %d, want 3", g.NumTasks())
	}
	if g.Task(0).ID != 1 || g.Task(2).ID != 3 {
		t.Errorf("task ids: %v %v", g.Task(0).ID, g.Task(2).ID)
	}
	if got := g.TotalExec(); got != ms(9) {
		t.Errorf("TotalExec = %v, want 9 ms", got)
	}
	if got := g.IndexOf(2); got != 1 {
		t.Errorf("IndexOf(2) = %d, want 1", got)
	}
	if got := g.IndexOf(99); got != -1 {
		t.Errorf("IndexOf(99) = %d, want -1", got)
	}
	if len(g.Preds(0)) != 0 || len(g.Succs(0)) != 1 || g.Succs(0)[0] != 1 {
		t.Errorf("adjacency of task 1 wrong: preds=%v succs=%v", g.Preds(0), g.Succs(0))
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*Graph, error)
		frag  string
	}{
		{"empty", func() (*Graph, error) { return NewBuilder("g").Build() }, "no tasks"},
		{"zero id", func() (*Graph, error) {
			return NewBuilder("g").AddTask(0, "a", ms(1)).Build()
		}, "non-positive id"},
		{"negative exec", func() (*Graph, error) {
			return NewBuilder("g").AddTask(1, "a", -ms(1)).Build()
		}, "non-positive execution time"},
		{"dup id", func() (*Graph, error) {
			return NewBuilder("g").AddTask(1, "a", ms(1)).AddTask(1, "b", ms(1)).Build()
		}, "duplicate task id"},
		{"unknown dep from", func() (*Graph, error) {
			return NewBuilder("g").AddTask(1, "a", ms(1)).AddDep(7, 1).Build()
		}, "unknown task 7"},
		{"unknown dep to", func() (*Graph, error) {
			return NewBuilder("g").AddTask(1, "a", ms(1)).AddDep(1, 7).Build()
		}, "unknown task 7"},
		{"self dep", func() (*Graph, error) {
			return NewBuilder("g").AddTask(1, "a", ms(1)).AddDep(1, 1).Build()
		}, "self-dependency"},
		{"cycle", func() (*Graph, error) {
			return NewBuilder("g").
				AddTask(1, "a", ms(1)).AddTask(2, "b", ms(1)).
				AddDep(1, 2).AddDep(2, 1).Build()
		}, "cycle"},
		{"rec wrong len", func() (*Graph, error) {
			return NewBuilder("g").AddTask(1, "a", ms(1)).AddTask(2, "b", ms(1)).
				SetRecSequence(1).Build()
		}, "entries"},
		{"rec unknown", func() (*Graph, error) {
			return NewBuilder("g").AddTask(1, "a", ms(1)).SetRecSequence(9).Build()
		}, "unknown task"},
		{"rec dup", func() (*Graph, error) {
			return NewBuilder("g").AddTask(1, "a", ms(1)).AddTask(2, "b", ms(1)).
				SetRecSequence(1, 1).Build()
		}, "twice"},
		{"rec not topological", func() (*Graph, error) {
			return NewBuilder("g").AddTask(1, "a", ms(1)).AddTask(2, "b", ms(1)).
				AddDep(1, 2).SetRecSequence(2, 1).Build()
		}, "before its predecessor"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if err == nil {
				t.Fatal("expected error, got nil")
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q does not mention %q", err, tt.frag)
			}
		})
	}
}

func TestDuplicateEdgesCollapse(t *testing.T) {
	g, err := NewBuilder("g").
		AddTask(1, "a", ms(1)).AddTask(2, "b", ms(1)).
		AddDep(1, 2).AddDep(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Succs(0)) != 1 {
		t.Errorf("duplicate edge not collapsed: %v", g.Succs(0))
	}
}

func TestTopoOrderChain(t *testing.T) {
	g := fig2TG1(t)
	order, ok := topoOrder(g)
	want := []int{0, 1, 2}
	if !ok || len(order) != len(want) {
		t.Fatalf("topoOrder = %v, %v, want %v", order, ok, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("topoOrder = %v, want %v", order, want)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	// Fig. 3 Task Graph 2: diamond 4(12)→{5(8),6(6)}→7(6); critical path
	// 12+8+6 = 26 ms.
	g := ForkJoin("fig3-tg2", 4, ms(12), []simtime.Time{ms(8), ms(6)}, ms(6), true)
	if got := g.CriticalPath(); got != ms(26) {
		t.Errorf("CriticalPath = %v, want 26 ms", got)
	}
	// Chain: critical path = total.
	c := fig2TG1(t)
	if got := c.CriticalPath(); got != ms(9) {
		t.Errorf("chain CriticalPath = %v, want 9 ms", got)
	}
}

func TestASAPStarts(t *testing.T) {
	g := ForkJoin("fj", 4, ms(12), []simtime.Time{ms(8), ms(6)}, ms(6), true)
	starts := g.ASAPStarts()
	want := []simtime.Time{0, ms(12), ms(12), ms(20)}
	for i := range want {
		if starts[i] != want[i] {
			t.Errorf("ASAPStarts[%d] = %v, want %v", i, starts[i], want[i])
		}
	}
}

func TestLevelsAndWidth(t *testing.T) {
	g := ForkJoin("fj", 1, ms(1), []simtime.Time{ms(1), ms(1), ms(1)}, ms(1), true)
	levels := g.Levels()
	if len(levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(levels))
	}
	if got := g.Width(); got != 3 {
		t.Errorf("Width = %d, want 3", got)
	}
}

func TestDefaultRecSequenceMatchesPaperOrder(t *testing.T) {
	// For the paper's graphs (declared in execution order) the default
	// reconfiguration sequence must be 1..n.
	g := ForkJoin("fig3-tg2", 4, ms(12), []simtime.Time{ms(8), ms(6)}, ms(6), true)
	got := g.RecSequenceIDs()
	want := []TaskID{4, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RecSequenceIDs = %v, want %v", got, want)
		}
	}
}

func TestExplicitRecSequence(t *testing.T) {
	g, err := NewBuilder("g").
		AddTask(1, "a", ms(1)).AddTask(2, "b", ms(2)).AddTask(3, "c", ms(3)).
		AddDep(1, 3).
		SetRecSequence(2, 1, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	got := g.RecSequenceIDs()
	want := []TaskID{2, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RecSequenceIDs = %v, want %v", got, want)
		}
	}
}

func TestRecSequenceAlwaysTopological(t *testing.T) {
	g := ForkJoin("fj", 1, ms(5), []simtime.Time{ms(1), ms(9)}, ms(2), true)
	pos := make(map[int]int)
	for k, i := range g.RecSequence() {
		pos[i] = k
	}
	for i := 0; i < g.NumTasks(); i++ {
		for _, p := range g.Preds(i) {
			if pos[p] > pos[i] {
				t.Fatalf("rec sequence not topological: pred %d after %d", p, i)
			}
		}
	}
}

func TestStringer(t *testing.T) {
	g := fig2TG1(t)
	s := g.String()
	for _, frag := range []string{"fig2-tg1", "3 tasks", "2 deps", "9 ms"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestTasksCopyIsolated(t *testing.T) {
	g := fig2TG1(t)
	ts := g.Tasks()
	ts[0].Exec = ms(999)
	if g.Task(0).Exec == ms(999) {
		t.Error("Tasks() must return a copy")
	}
}
