package core

import (
	"strings"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

func TestNewSystemValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no units", Config{RUs: 0, Latency: ms(4), Policy: "lru"}},
		{"negative latency", Config{RUs: 4, Latency: -ms(1), Policy: "lru"}},
		{"nil policy", Config{RUs: 4, Latency: ms(4)}},
		{"bad spec", Config{RUs: 4, Latency: ms(4), Policy: "nope"}},
		{"bad type", Config{RUs: 4, Latency: ms(4), Policy: 42}},
	}
	for _, tt := range cases {
		if _, err := NewSystem(tt.cfg); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

func TestPolicyFromValueOrString(t *testing.T) {
	a, err := NewSystem(Config{RUs: 4, Latency: ms(4), Policy: "lfd"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSystem(Config{RUs: 4, Latency: ms(4), Policy: policy.NewLFD()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Policy().Name() != b.Policy().Name() {
		t.Errorf("policies differ: %s vs %s", a.Policy().Name(), b.Policy().Name())
	}
}

// TestEvaluateFig2 runs the whole facade over the Fig. 2 anchor.
func TestEvaluateFig2(t *testing.T) {
	res, err := Evaluate(Config{RUs: 4, Latency: ms(4), Policy: "lfd"},
		workload.Fig2Sequence()...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Reused != 5 || res.Summary.Overhead() != ms(11) {
		t.Errorf("summary = %v", res.Summary)
	}
	if res.Ideal.Makespan != ms(42) {
		t.Errorf("ideal = %v, want 42 ms", res.Ideal.Makespan)
	}
}

// TestSkipEventsEndToEnd reproduces Fig. 3b through the facade, with the
// design-time phase computed by Prepare rather than hand-fed.
func TestSkipEventsEndToEnd(t *testing.T) {
	sys, err := NewSystem(Config{
		RUs: 4, Latency: ms(4), Policy: "locallfd:1", SkipEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := workload.Fig3Sequence()
	if err := sys.Prepare(seq...); err != nil {
		t.Fatal(err)
	}
	tab, ok := sys.MobilityTable(seq[1]) // fig3-tg2
	if !ok {
		t.Fatal("no mobility table for TG2")
	}
	// Fig. 7: task 7 (local index 3) has mobility 1.
	if tab.Values[3] != 1 {
		t.Errorf("mobility(task 7) = %d, want 1", tab.Values[3])
	}
	res, err := sys.Run(seq...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Makespan != ms(70) || res.Summary.Reused != 1 {
		t.Errorf("makespan = %v reused = %d, want 70 ms and 1", res.Run.Makespan, res.Summary.Reused)
	}
}

// TestRunPreparesOnDemand: skip events without an explicit Prepare call
// must still work (Run prepares the templates it can see).
func TestRunPreparesOnDemand(t *testing.T) {
	sys, err := NewSystem(Config{RUs: 4, Latency: ms(4), Policy: "locallfd:1", SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(workload.Fig3Sequence()...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Makespan != ms(70) {
		t.Errorf("makespan = %v, want 70 ms", res.Run.Makespan)
	}
}

func TestPrepareIdempotentAndValidates(t *testing.T) {
	sys, err := NewSystem(Config{RUs: 4, Latency: ms(4), Policy: "lru"})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.JPEG()
	if err := sys.Prepare(g, g, g); err != nil {
		t.Fatal(err)
	}
	if err := sys.Prepare(nil); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestRunArrivals(t *testing.T) {
	sys, err := NewSystem(Config{RUs: 4, Latency: ms(4), Policy: "lru"})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.JPEG()
	arrivals, err := dynlist.NewTimed([]dynlist.Item{
		{Graph: g, Arrival: 0},
		{Graph: g, Arrival: ms(500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunArrivals(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Executed != 8 || res.Run.Reused != 4 {
		t.Errorf("executed %d reused %d, want 8 and 4", res.Run.Executed, res.Run.Reused)
	}
}

func TestRecordTrace(t *testing.T) {
	res, err := Evaluate(Config{RUs: 4, Latency: ms(4), Policy: "lru", RecordTrace: true},
		workload.Fig2Sequence()...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Trace == nil {
		t.Fatal("no trace recorded")
	}
	if err := res.Run.Trace.Validate(res.Run.Templates); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	gantt := res.Run.Trace.Gantt(trace.GanttOptions{TickMs: 1})
	if !strings.Contains(gantt, "rec |") {
		t.Errorf("gantt rendering broken:\n%s", gantt)
	}
}

func TestSummaryReadable(t *testing.T) {
	res, err := Evaluate(Config{RUs: 4, Latency: ms(4), Policy: "lru"},
		workload.Fig2Sequence()...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Summary.String(), "LRU") {
		t.Errorf("summary: %s", res.Summary)
	}
}
