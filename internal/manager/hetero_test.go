package manager

import (
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TestHeterogeneousLatency: per-task latencies override the uniform one
// and shift the schedule accordingly.
func TestHeterogeneousLatency(t *testing.T) {
	g := taskgraph.Chain("c", 1, ms(2), ms(2))
	perTask := map[taskgraph.TaskID]simtime.Time{1: ms(10), 2: ms(1)}
	res, err := Run(Config{
		RUs:     2,
		Latency: ms(4), // ignored where LatencyFor answers
		LatencyFor: func(id taskgraph.TaskID) simtime.Time {
			return perTask[id]
		},
		Policy:      policy.NewLRU(),
		RecordTrace: true,
	}, dynlist.NewSequence(g))
	if err != nil {
		t.Fatal(err)
	}
	// load 1 [0,10], exec 1 [10,12]; load 2 [10,11], exec 2 [12,14].
	if want := ms(14); res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if err := res.Trace.Validate(res.Templates); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	if !res.Trace.Heterogeneous {
		t.Error("trace not marked heterogeneous")
	}
	for _, l := range res.Trace.Loads {
		if got, want := l.End.Sub(l.Start), perTask[l.Task]; got != want {
			t.Errorf("load %d took %v, want %v", l.Task, got, want)
		}
	}
}

// TestBitstreamDerivedLatencies runs the multimedia workload with
// bitstream-derived per-task latencies end to end.
func TestBitstreamDerivedLatencies(t *testing.T) {
	lat, err := workload.LatencyFromBitstreams(workload.BitstreamBytes(), workload.DefaultConfigBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	jpeg, hough := workload.JPEG(), workload.Hough()
	res, err := Run(Config{
		RUs: 4, LatencyFor: lat, Policy: policy.NewLRU(), RecordTrace: true,
	}, dynlist.NewSequence(jpeg, hough, jpeg))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Validate(res.Templates); err != nil {
		t.Fatal(err)
	}
	if res.Executed != 14 {
		t.Errorf("executed %d, want 14", res.Executed)
	}
	// The second JPEG cannot reuse anything after Hough's 6 tasks swept a
	// 4-unit array.
	if res.Reused != 0 {
		t.Errorf("reused = %d, want 0", res.Reused)
	}
	// Every load's duration must equal its task's derived latency.
	for _, l := range res.Trace.Loads {
		if got := l.End.Sub(l.Start); got != lat(l.Task) {
			t.Errorf("load %d took %v, want %v", l.Task, got, lat(l.Task))
		}
	}
}

// TestHeterogeneousZero: a LatencyFor returning zero behaves like the
// ideal baseline.
func TestHeterogeneousZero(t *testing.T) {
	g := workload.JPEG()
	res, err := Run(Config{
		RUs:        4,
		Latency:    ms(4),
		LatencyFor: func(taskgraph.TaskID) simtime.Time { return 0 },
		Policy:     policy.NewLRU(),
	}, dynlist.NewSequence(g))
	if err != nil {
		t.Fatal(err)
	}
	if want := simtime.FromMs(79); res.Makespan != want {
		t.Errorf("makespan = %v, want critical path %v", res.Makespan, want)
	}
}

// TestNegativeLatencyForIsAnError: a negative per-task latency fails Run
// with an error naming the task, even for a task that would never be
// loaded, and leaves the Runner usable. LatencyFor is asked once per
// distinct task.
func TestNegativeLatencyForIsAnError(t *testing.T) {
	asked := make(map[taskgraph.TaskID]int)
	cfg := Config{
		RUs: 2, Policy: policy.NewLRU(),
		LatencyFor: func(id taskgraph.TaskID) simtime.Time {
			asked[id]++
			if id == 5 {
				return -ms(1)
			}
			return ms(2)
		},
	}
	tg1, tg2 := workload.Fig2TG1(), workload.Fig2TG2()
	r := NewRunner()
	_, err := r.Run(cfg, dynlist.NewSequence(tg1, tg1, tg2))
	if want := "manager: negative latency -1 ms for task 5"; err == nil || err.Error() != want {
		t.Fatalf("Run error = %v, want %q", err, want)
	}
	for id, n := range asked {
		if n != 1 {
			t.Errorf("LatencyFor asked %d times for task %d, want once", n, id)
		}
	}
	res, err := r.Run(cfg, dynlist.NewSequence(tg1, tg1))
	if err != nil {
		t.Fatalf("runner unusable after the error: %v", err)
	}
	if res.Graphs != 2 {
		t.Errorf("graphs = %d, want 2", res.Graphs)
	}
}
