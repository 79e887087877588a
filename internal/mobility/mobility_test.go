package mobility

import (
	"strings"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

// TestFig7Mobilities is the paper's worked example (Fig. 7): for Task
// Graph 2 of Fig. 3 on 4 units with 4 ms latency, tasks 5 and 6 have
// mobility 0 and task 7 has mobility 1; the reference makespan is 30 ms.
func TestFig7Mobilities(t *testing.T) {
	g := workload.Fig3TG2()
	tab, err := Compute(g, 4, ms(4))
	if err != nil {
		t.Fatal(err)
	}
	if tab.RefMakespan != ms(30) {
		t.Errorf("reference makespan = %v, want 30 ms", tab.RefMakespan)
	}
	want := map[taskgraph.TaskID]int{4: 0, 5: 0, 6: 0, 7: 1}
	for i := 0; i < g.NumTasks(); i++ {
		id := g.Task(i).ID
		if tab.Values[i] != want[id] {
			t.Errorf("mobility(task %d) = %d, want %d", id, tab.Values[i], want[id])
		}
	}
}

// TestFirstTaskPinnedToZero: the first task of the reconfiguration
// sequence is excluded from the paper's Task Set.
func TestFirstTaskPinnedToZero(t *testing.T) {
	g := workload.Fig3TG2()
	tab, err := Compute(g, 4, ms(4))
	if err != nil {
		t.Fatal(err)
	}
	first := g.RecSequence()[0]
	if tab.Values[first] != 0 {
		t.Errorf("first task mobility = %d, want 0", tab.Values[first])
	}
}

// TestMobilityDefinition: by construction, delaying any task by its
// mobility must keep the isolated makespan at the reference value, and
// the search already verified mobility+1 either degrades it or has no
// further effect. Re-verify the first half independently through the
// manager.
func TestMobilityDefinition(t *testing.T) {
	for _, g := range []*taskgraph.Graph{
		workload.Fig3TG2(), workload.JPEG(), workload.MPEG1(), workload.Hough(),
	} {
		tab, err := Compute(g, 4, ms(4))
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		base := manager.Config{RUs: 4, Latency: ms(4), Policy: policy.NewLRU()}
		for local, m := range tab.Values {
			if m == 0 {
				continue
			}
			base.DelayPlan = map[int]int{local: m}
			res, err := manager.Run(base, dynlist.NewSequence(g))
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan != tab.RefMakespan {
				t.Errorf("%s task %d: delay by mobility %d gives %v, ref %v",
					g.Name(), g.Task(local).ID, m, res.Makespan, tab.RefMakespan)
			}
		}
	}
}

// TestChainMobilitiesSaturate: in a chain on one unit every load is on
// the critical path, so all mobilities are 0.
func TestChainMobilitiesSaturate(t *testing.T) {
	g := taskgraph.Chain("c", 1, ms(2), ms(2), ms(2))
	tab, err := Compute(g, 1, ms(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tab.Values {
		if v != 0 {
			t.Errorf("task %d mobility = %d, want 0", g.Task(i).ID, v)
		}
	}
}

// TestWideGraphHasMobility: with ample units, a long-running sibling
// gives the sink's load slack. For root(20) → {a(8), b(1)} → sink(1) on 4
// units with 4 ms latency the events are: end-of-load(b) at 12, end of
// root at 24, end of b at 25, end of a at 32. The sink's load (reference
// [12,16]) can be postponed past the events at 12, 24 and 25 — loading at
// 25 still completes by 29, before the sink's predecessors finish at 32 —
// but postponing it a third time lands at 32 and delays the sink. So its
// mobility is exactly 2.
func TestWideGraphHasMobility(t *testing.T) {
	g := taskgraph.ForkJoin("w", 1, ms(20), []simtime.Time{ms(8), ms(1)}, ms(1), true)
	tab, err := Compute(g, 4, ms(4))
	if err != nil {
		t.Fatal(err)
	}
	sink := g.NumTasks() - 1
	if tab.Values[sink] != 2 {
		t.Errorf("sink mobility = %d, want 2", tab.Values[sink])
	}
}

func TestComputeAllAndLookup(t *testing.T) {
	jpeg := workload.JPEG()
	seq := []*taskgraph.Graph{jpeg, workload.MPEG1(), jpeg} // jpeg repeated
	lookup, tables, err := ComputeAll(seq, 4, ms(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2 (deduplicated)", len(tables))
	}
	if vals := lookup(jpeg); vals == nil || len(vals) != jpeg.NumTasks() {
		t.Errorf("lookup(jpeg) = %v", vals)
	}
	if vals := lookup(workload.Hough()); vals != nil {
		t.Errorf("lookup(unknown graph) = %v, want nil", vals)
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(nil, 4, ms(4)); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Compute(workload.JPEG(), 0, ms(4)); err == nil {
		t.Error("zero units accepted")
	}
}

func TestScheduleCountGrowsWithTasks(t *testing.T) {
	small, err := Compute(workload.JPEG(), 4, ms(4)) // 4 tasks
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compute(workload.Hough(), 4, ms(4)) // 6 tasks
	if err != nil {
		t.Fatal(err)
	}
	if small.Schedules < 4 || big.Schedules <= small.Schedules {
		t.Errorf("schedule counts: jpeg=%d hough=%d", small.Schedules, big.Schedules)
	}
}

func TestTableString(t *testing.T) {
	tab, err := Compute(workload.Fig3TG2(), 4, ms(4))
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, frag := range []string{"fig3-tg2", "R=4", "30 ms", "7:1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
