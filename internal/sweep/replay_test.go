package sweep

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/taskgraph"
)

// replayScenario is one recorded scenario of a committed dispatch
// recording (testdata/dispatch): its shape and its measured simulation
// wall time. The recording's fourth column, the scenario name, is for
// readers only.
type replayScenario struct {
	apps, rus int
	ns        int64
}

// scenario rebuilds the part of the Scenario that dispatch ranking reads.
func (r replayScenario) scenario() *Scenario {
	return &Scenario{RUs: r.rus, Workload: &Workload{Seq: make([]*taskgraph.Graph, r.apps)}}
}

func loadReplay(t *testing.T, grid string) []replayScenario {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "dispatch", grid+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []replayScenario
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 4)
		if len(fields) != 4 {
			t.Fatalf("%s: malformed line %q", grid, line)
		}
		var r replayScenario
		var errs [3]error
		r.apps, errs[0] = strconv.Atoi(fields[0])
		r.rus, errs[1] = strconv.Atoi(fields[1])
		r.ns, errs[2] = strconv.ParseInt(fields[2], 10, 64)
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: line %q: %v", grid, line, err)
			}
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// replayMakespan list-schedules the recorded durations onto the given
// number of workers through the executor's own window-and-pick step
// (nextDispatch over a reorderWindow(workers) window, in-order
// collection), and returns the makespan. A worker that frees up takes
// the next pick at once; simultaneous completions land in position
// order. Integer arithmetic keeps the result exact on every host.
func replayMakespan(durs []int64, costs []float64, workers int) int64 {
	type job struct {
		pos    int
		finish int64
	}
	window := reorderWindow(workers)
	dispatched := make([]bool, len(durs))
	done := make([]bool, len(durs))
	var running []job
	var now int64
	collected := 0
	for {
		for len(running) < workers {
			p := nextDispatch(costs, dispatched, collected, window)
			if p < 0 {
				break
			}
			dispatched[p] = true
			running = append(running, job{pos: p, finish: now + durs[p]})
		}
		if len(running) == 0 {
			return now
		}
		next := 0
		for i, j := range running {
			if j.finish < running[next].finish || (j.finish == running[next].finish && j.pos < running[next].pos) {
				next = i
			}
		}
		j := running[next]
		running = append(running[:next], running[next+1:]...)
		now = j.finish
		done[j.pos] = true
		for collected < len(done) && done[collected] {
			collected++
		}
	}
}

// replayRatio is a makespan over its lower bound, max(Σ/P, longest job).
func replayRatio(durs []int64, makespan int64, workers int) float64 {
	var sum, longest int64
	for _, d := range durs {
		sum += d
		longest = max(longest, d)
	}
	lb := max(float64(sum)/float64(workers), float64(longest))
	return float64(makespan) / lb
}

// replayGrids are the committed recordings, in table order.
var replayGrids = []string{"fig9-window", "fig9-lfd", "mixed"}

// TestDispatchReplay pins how close load-ranked LPT dispatch comes to the
// best possible makespan on real per-scenario times, next to plain spec
// order, as makespan ÷ lower bound for every recorded grid at P = 2, 4
// and 8. Wall clock cannot show dispatch quality on a one-core host, and
// timings vary by machine; replaying committed recordings through the
// executor's real window-and-pick step makes the comparison exact and
// host-independent. The recordings and the rankings this table was
// chosen over are described in ARCHITECTURE.md §"Cost model".
func TestDispatchReplay(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %2s %9s %9s\n", "grid", "P", "spec", "load")
	for _, grid := range []string{"fig9-window", "fig9-lfd", "mixed"} {
		rec := loadReplay(t, grid)
		durs := make([]int64, len(rec))
		spec := make([]float64, len(rec)) // all ties: spec order
		load := make([]float64, len(rec))
		for i, r := range rec {
			durs[i] = r.ns
			load[i] = scenarioLoad(r.scenario())
		}
		for _, p := range []int{2, 4, 8} {
			fmt.Fprintf(&b, "%-12s %2d %9.3f %9.3f\n", grid, p,
				replayRatio(durs, replayMakespan(durs, spec, p), p),
				replayRatio(durs, replayMakespan(durs, load, p), p))
		}
	}
	got := b.String()
	const want = `grid          P      spec      load
fig9-window   2     1.003     1.003
fig9-window   4     1.006     1.014
fig9-window   8     1.007     1.070
fig9-lfd      2     1.005     1.000
fig9-lfd      4     1.149     1.132
fig9-lfd      8     1.155     1.213
mixed         2     1.005     1.005
mixed         4     1.029     1.029
mixed         8     1.073     1.073
`
	if got != want {
		t.Errorf("dispatch replay table changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
