package metrics

import (
	"strings"
	"testing"

	"repro/internal/manager"
	"repro/internal/simtime"
)

func times(ms ...float64) []simtime.Time {
	out := make([]simtime.Time, len(ms))
	for i, v := range ms {
		out[i] = simtime.FromMs(v)
	}
	return out
}

func TestDelays(t *testing.T) {
	run := &manager.Result{Completions: times(10, 25, 40, 70)}
	ideal := &manager.Result{Completions: times(8, 20, 38, 50)}
	d, err := Delays(run, ideal)
	if err != nil {
		t.Fatal(err)
	}
	// delays: 2, 5, 2, 20 ms
	if d.Count != 4 {
		t.Errorf("Count = %d", d.Count)
	}
	if d.Mean != simtime.FromMs(7.25) {
		t.Errorf("Mean = %v, want 7.25 ms", d.Mean)
	}
	if d.Max != simtime.FromMs(20) {
		t.Errorf("Max = %v, want 20 ms", d.Max)
	}
	if d.P50 != simtime.FromMs(2) {
		t.Errorf("P50 = %v, want 2 ms", d.P50)
	}
	if d.P95 != simtime.FromMs(20) {
		t.Errorf("P95 = %v, want 20 ms", d.P95)
	}
	if !strings.Contains(d.String(), "p95") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestDelaysValidation(t *testing.T) {
	if _, err := Delays(nil, nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Delays(&manager.Result{Completions: times(1)}, &manager.Result{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Delays(
		&manager.Result{Completions: times(5)},
		&manager.Result{Completions: times(9)}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestDelaysEmpty(t *testing.T) {
	d, err := Delays(&manager.Result{}, &manager.Result{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != 0 || d.Mean != 0 {
		t.Errorf("empty: %+v", d)
	}
}

func TestPercentile(t *testing.T) {
	vals := times(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	cases := []struct {
		p    int
		want float64
	}{
		{50, 5}, {95, 10}, {100, 10}, {10, 1}, {1, 1},
	}
	for _, tt := range cases {
		if got := percentile(vals, tt.p); got != simtime.FromMs(tt.want) {
			t.Errorf("p%d = %v, want %v ms", tt.p, got, tt.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}
