package bench

import (
	"testing"
)

// runs builds one workload's runs, seeded 1..n, reporting one metric.
func runs(metric, unit string, values ...float64) []RunRecord {
	var out []RunRecord
	for i, v := range values {
		out = append(out, RunRecord{
			Workload: "fig9-lfd", Seed: int64(i + 1),
			Result: Result{Correct: true, Attempted: 100, Metrics: map[string]Value{metric: {Value: v, Unit: unit}}},
		})
	}
	return out
}

// verdict compares base and change and returns the row of metric.
func verdict(t *testing.T, metric string, base, change []RunRecord) Comparison {
	t.Helper()
	for _, r := range Compare(base, change) {
		if r.Metric == metric {
			return r
		}
	}
	t.Fatalf("no row for %s", metric)
	return Comparison{}
}

func shifted(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + by
	}
	return out
}

// base10 has a median of 10.45 and an IQR of 0.55: a 5% spread. The
// shifts below are chosen against the declared bounds: 0.2 (2%) is inside
// every bound, 5 (48%) outside any, and 2.3 (22%) outside the timing
// bounds (20%) but inside setup_s's (25%).
var base10 = []float64{10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9}

func TestCompareBranches(t *testing.T) {
	cases := []struct {
		name   string
		metric string
		unit   string
		base   []float64
		change []float64
		want   string
	}{
		{"gain: every pair won, gap over the base IQR", "wall_s", "s", base10, shifted(base10, -1), Gain},
		{"no change: inside the bound, pairs split", "wall_s", "s", base10, []float64{10.9, 10.0, 10.8, 10.1, 10.7, 10.2, 10.6, 10.3, 10.5, 10.4}, NoChange},
		{"no change: every pair won, gap under the base IQR", "wall_s", "s", base10, shifted(base10, -0.01), NoChange},
		{"no change: gap over the IQR, 8 of 10 pairs won", "wall_s", "s", base10,
			[]float64{9.0, 9.1, 9.2, 9.3, 9.4, 9.5, 9.6, 9.7, 10.9, 11.0}, NoChange},
		{"regression: median worse by more than the bound", "wall_s", "s", base10, shifted(base10, 5), Regression},
		{"no regression: worse by less than the bound", "wall_s", "s", base10, shifted(base10, 0.2), NoChange},
		{"regression when higher is better", "scenarios_per_s", "1/s", base10, shifted(base10, -5), Regression},
		{"gain when higher is better", "scenarios_per_s", "1/s", base10, shifted(base10, 1), Gain},
		{"unresolved: base spread over the bound", "wall_s", "s",
			[]float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, Unresolved},
		{"unresolved: change spread over the bound", "wall_s", "s",
			base10, []float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, Unresolved},
		{"spread over the bound, but every change run beats every base run", "wall_s", "s",
			[]float64{20, 22, 24, 26, 28, 30, 32, 34, 36, 38}, []float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, Gain},
		{"setup_s has its own bound", "setup_s", "s", base10, shifted(base10, 2.3), NoChange},
		{"setup_s regresses past its bound", "setup_s", "s", base10, shifted(base10, 5), Regression},
		{"setup_s is judged on its median, not its spread", "setup_s", "s",
			[]float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, NoChange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := verdict(t, c.metric, runs(c.metric, c.unit, c.base...), runs(c.metric, c.unit, c.change...))
			if r.Verdict != c.want {
				t.Errorf("verdict %q, want %q (base %+v, change %+v, won %d/%d)",
					r.Verdict, c.want, r.Base, r.Change, r.Won, r.Pairs)
			}
		})
	}
}

func TestCompareTiesCountForNeither(t *testing.T) {
	r := verdict(t, "wall_s", runs("wall_s", "s", base10...), runs("wall_s", "s", base10...))
	if r.Won != 0 || r.Lost != 0 || r.Pairs != 10 || r.Verdict != NoChange {
		t.Errorf("identical runs: won %d lost %d of %d, %s", r.Won, r.Lost, r.Pairs, r.Verdict)
	}
}

func TestCompareFailedFractionRise(t *testing.T) {
	base := runs("wall_s", "s", base10...)
	change := runs("wall_s", "s", base10...)
	if r := verdict(t, "failed_frac", base, change); r.Verdict != NoChange {
		t.Errorf("no failures: %s", r.Verdict)
	}
	change[4].Result.Failed = 1
	if r := verdict(t, "failed_frac", base, change); r.Verdict != Failure {
		t.Errorf("one failed operation: %s", r.Verdict)
	}
	change[4].Result.Failed = 0
	change[4].Result.Correct = false
	if r := verdict(t, "failed_frac", base, change); r.Verdict != Failure {
		t.Errorf("one wrong output: %s", r.Verdict)
	}
}

func TestComparePerLayerHasNoVerdict(t *testing.T) {
	r := verdict(t, "manager.events", runs("manager.events", "count", base10...), runs("manager.events", "count", shifted(base10, 5)...))
	if r.Verdict != Info {
		t.Errorf("per-layer metric: %s", r.Verdict)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{7, 7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestLedgerBaselineAgrees is the benchmark's own steadiness criterion on
// the committed baseline: two sets of runs of one commit show no
// regression, no unresolved end-to-end metric and no failure.
func TestLedgerBaselineAgrees(t *testing.T) {
	a, err := ReadSet("ledger/baseline.json#a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadSet("ledger/baseline.json#b")
	if err != nil {
		t.Fatal(err)
	}
	rows := Compare(a, b)
	if len(rows) == 0 {
		t.Fatal("nothing compared")
	}
	for _, r := range rows {
		switch r.Verdict {
		case Regression, Unresolved, Failure:
			t.Errorf("%s %s: %s (a %+v, b %+v)", r.Workload, r.Metric, r.Verdict, r.Base, r.Change)
		}
	}
}
