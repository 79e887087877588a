package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/manager"
	"repro/internal/simtime"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

func mkSummary(t *testing.T, executed, reused int, makespan, ideal float64) *Summary {
	t.Helper()
	s, err := Summarize("P", 4, ms(4),
		&manager.Result{Executed: executed, Reused: reused, Makespan: ms(makespan)},
		&manager.Result{Executed: executed, Makespan: ms(ideal)})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFig2Quantities recomputes the paper's Fig. 2 numbers from raw
// counts: 12 executions, ideal 42 ms.
func TestFig2Quantities(t *testing.T) {
	cases := []struct {
		name     string
		reused   int
		makespan float64
		rate     float64
		overhead float64
	}{
		{"LRU", 2, 64, 16.67, 22},
		{"LFD", 5, 53, 41.67, 11},
		{"LocalLFD", 5, 57, 41.67, 15},
	}
	for _, tt := range cases {
		s := mkSummary(t, 12, tt.reused, tt.makespan, 42)
		if math.Abs(s.ReuseRate()-tt.rate) > 0.01 {
			t.Errorf("%s: reuse = %.2f%%, want %.2f%%", tt.name, s.ReuseRate(), tt.rate)
		}
		if s.Overhead() != ms(tt.overhead) {
			t.Errorf("%s: overhead = %v, want %v ms", tt.name, s.Overhead(), tt.overhead)
		}
	}
}

func TestRemainingOverheadPct(t *testing.T) {
	// 12 tasks × 4 ms = 48 ms original; 22 ms remaining ⇒ 45.83 %.
	s := mkSummary(t, 12, 2, 64, 42)
	if got := s.RemainingOverheadPct(); math.Abs(got-45.8333) > 0.01 {
		t.Errorf("remaining = %.3f%%, want 45.833%%", got)
	}
	if s.OriginalOverhead() != ms(48) {
		t.Errorf("original = %v, want 48 ms", s.OriginalOverhead())
	}
}

func TestZeroLatencySummary(t *testing.T) {
	s, err := Summarize("P", 4, 0,
		&manager.Result{Executed: 5, Makespan: ms(10)},
		&manager.Result{Executed: 5, Makespan: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	if s.RemainingOverheadPct() != 0 {
		t.Error("zero-latency remaining overhead should be 0")
	}
}

func TestEmptyRun(t *testing.T) {
	s, err := Summarize("P", 4, ms(4), &manager.Result{}, &manager.Result{})
	if err != nil {
		t.Fatal(err)
	}
	if s.ReuseRate() != 0 || s.RemainingOverheadPct() != 0 {
		t.Error("empty run should report zeros")
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := Summarize("P", 4, ms(4), nil, nil); err == nil {
		t.Error("nil results accepted")
	}
	if _, err := Summarize("P", 4, ms(4),
		&manager.Result{Executed: 3},
		&manager.Result{Executed: 4}); err == nil {
		t.Error("mismatched workloads accepted")
	}
	if _, err := Summarize("P", 4, ms(4),
		&manager.Result{Executed: 3, Makespan: ms(1)},
		&manager.Result{Executed: 3, Makespan: ms(2)}); err == nil {
		t.Error("run faster than ideal accepted")
	}
}

func TestSummaryString(t *testing.T) {
	s := mkSummary(t, 12, 5, 53, 42)
	out := s.String()
	for _, frag := range []string{"41.67", "11 ms", "53 ms", "R=4"} {
		if !strings.Contains(out, frag) {
			t.Errorf("String() = %q missing %q", out, frag)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}
