package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// RunRecord is one run of one workload as a results file records it.
type RunRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   Result `json:"result"`
	Error    string `json:"error,omitempty"`
}

// Verdicts of the decision rule.
const (
	Gain       = "gain"
	Regression = "regression"
	Unresolved = "unresolved"
	NoChange   = "no change"
	Failure    = "failure"
	Info       = "info" // per-layer metrics have no bound and no verdict
)

// Summary is a sample's median and quartiles.
type Summary struct {
	N              int
	Median, Q1, Q3 float64
}

// IQR is the distance between the quartiles.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// Comparison is one (workload, metric) row of a comparison.
type Comparison struct {
	Workload, Metric, Unit string
	Base, Change           Summary
	Won, Lost, Pairs       int
	Verdict                string
}

// Compare applies the decision rule to every (workload, metric) pair the
// base and change runs share. Runs pair up by seed.
//
//   - A metric whose spread (IQR over median) exceeds its bound on either
//     side is unresolved, unless every change run beats every base run;
//     setup_s is judged on its median alone.
//   - A median worse than the base's by more than the bound is a
//     regression.
//   - A gain needs the change to win at least nine tenths of the pairs
//     (ties count for neither side) and a median gap larger than the
//     base's IQR.
//   - Any rise in the failed fraction (failed ÷ attempted, with a wrong
//     output counting as failed) is a failure.
func Compare(base, change []RunRecord) []Comparison {
	decl := make(map[string]Metric)
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		decl[m.Name] = m
	}
	var out []Comparison
	for _, w := range workloadsOf(base, change) {
		b, c := runsOf(base, w), runsOf(change, w)
		out = append(out, compareFailures(w, b, c))
		for _, name := range metricsOf(b, c) {
			m, ok := decl[name]
			if !ok {
				continue
			}
			out = append(out, compareMetric(w, m, b, c))
		}
	}
	return out
}

func workloadsOf(a, b []RunRecord) []string {
	var out []string
	for _, w := range Workloads {
		if len(runsOf(a, w)) > 0 && len(runsOf(b, w)) > 0 {
			out = append(out, w)
		}
	}
	return out
}

func runsOf(rs []RunRecord, workload string) []RunRecord {
	var out []RunRecord
	for _, r := range rs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

// metricsOf lists the metrics both sides reported, in declaration order.
func metricsOf(a, b []RunRecord) []string {
	has := func(rs []RunRecord, name string) bool {
		for _, r := range rs {
			if _, ok := r.Result.Metrics[name]; ok {
				return true
			}
		}
		return false
	}
	var out []string
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if has(a, m.Name) && has(b, m.Name) {
			out = append(out, m.Name)
		}
	}
	return out
}

func failedFrac(rs []RunRecord) float64 {
	var failed, attempted float64
	for _, r := range rs {
		f := float64(r.Result.Failed)
		if !r.Result.Correct || r.Error != "" {
			f = math.Max(f, 1)
		}
		failed += f
		attempted += math.Max(float64(r.Result.Attempted), 1)
	}
	return failed / attempted
}

func compareFailures(w string, b, c []RunRecord) Comparison {
	fb, fc := failedFrac(b), failedFrac(c)
	cmp := Comparison{
		Workload: w, Metric: "failed_frac", Unit: "ratio",
		Base:    Summary{N: len(b), Median: fb, Q1: fb, Q3: fb},
		Change:  Summary{N: len(c), Median: fc, Q1: fc, Q3: fc},
		Verdict: NoChange,
	}
	if fc > fb {
		cmp.Verdict = Failure
	}
	return cmp
}

func compareMetric(w string, m Metric, b, c []RunRecord) Comparison {
	values := func(rs []RunRecord) []float64 {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.Result.Metrics[m.Name]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	cmp := Comparison{Workload: w, Metric: m.Name, Unit: m.Unit}
	bv, cv := values(b), values(c)
	cmp.Base, cmp.Change = Summarize(bv), Summarize(cv)
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for _, p := range pairs(m.Name, b, c) {
		cmp.Pairs++
		switch {
		case better(p[1], p[0]):
			cmp.Won++
		case better(p[0], p[1]):
			cmp.Lost++
		}
	}
	cmp.Verdict = decide(m, cmp, bv, cv, better)
	return cmp
}

// decide is the decision rule for one metric (see Compare).
func decide(m Metric, cmp Comparison, bv, cv []float64, better func(x, y float64) bool) string {
	if m.Bound == 0 {
		return Info
	}
	base, change := cmp.Base, cmp.Change
	spread := func(s Summary) float64 { return s.IQR() / math.Abs(s.Median) }
	allBetter := len(bv) > 0 && len(cv) > 0
	for _, x := range cv {
		for _, y := range bv {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (change.Median - base.Median) / math.Abs(base.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	// Set-up is timed a few short times per run; its spread is not held
	// to the bound, only its median.
	spreadHeld := m.Name != "setup_s"
	switch {
	case spreadHeld && (spread(base) > m.Bound || spread(change) > m.Bound) && !allBetter:
		return Unresolved
	case worse > m.Bound:
		return Regression
	case better(change.Median, base.Median) && float64(cmp.Won) >= 0.9*float64(cmp.Pairs) &&
		math.Abs(change.Median-base.Median) > base.IQR():
		return Gain
	}
	return NoChange
}

// pairs matches base and change runs of one workload by seed.
func pairs(metric string, b, c []RunRecord) [][2]float64 {
	var out [][2]float64
	for _, rb := range b {
		for _, rc := range c {
			vb, okb := rb.Result.Metrics[metric]
			vc, okc := rc.Result.Metrics[metric]
			if rb.Seed == rc.Seed && okb && okc {
				out = append(out, [2]float64{vb.Value, vc.Value})
				break
			}
		}
	}
	return out
}

// Summarize returns the median and quartiles of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Median = median(append([]float64(nil), xs...))
	s.Q1, s.Q3 = quartiles(xs)
	return s
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads match what an external check computes. A single value is its
// own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// PrintComparison writes the comparison table.
func PrintComparison(w io.Writer, rows []Comparison) {
	fmt.Fprintf(w, "%-14s %-34s %-9s %13s %13s %13s %13s %6s  %s\n",
		"workload", "metric", "unit", "base median", "base IQR", "change median", "change IQR", "won", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-34s %-9s %13.6g %13.6g %13.6g %13.6g %6s  %s\n",
			r.Workload, r.Metric, r.Unit, r.Base.Median, r.Base.IQR(), r.Change.Median, r.Change.IQR(),
			fmt.Sprintf("%d/%d", r.Won, r.Pairs), r.Verdict)
	}
}
