package sweep

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// loadReplay reads the measured per-scenario simulation wall times of a
// committed dispatch recording (testdata/dispatch), in spec order. Of
// each line's four columns only the third, nanoseconds, is replayed; the
// apps, RUs and scenario name are for readers.
func loadReplay(t *testing.T, grid string) []int64 {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "dispatch", grid+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []int64
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
		ns, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			t.Fatalf("%s: line %q: %v", grid, line, err)
		}
		out = append(out, ns)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// replayMakespan list-schedules the recorded durations onto the given
// number of workers the way the executor dispatches them (spec order, at
// most reorderWindow(workers) positions ahead of in-order collection),
// and returns the makespan. A worker that frees up takes the next
// position at once; simultaneous completions land in position order.
// Integer arithmetic keeps the result exact on every host.
func replayMakespan(durs []int64, workers int) int64 {
	type job struct {
		pos    int
		finish int64
	}
	window := reorderWindow(workers)
	done := make([]bool, len(durs))
	var running []job
	var now int64
	collected, next := 0, 0
	for {
		for len(running) < workers && next < len(durs) && next < collected+window {
			running = append(running, job{pos: next, finish: now + durs[next]})
			next++
		}
		if len(running) == 0 {
			return now
		}
		first := 0
		for i, j := range running {
			if j.finish < running[first].finish || (j.finish == running[first].finish && j.pos < running[first].pos) {
				first = i
			}
		}
		j := running[first]
		running = append(running[:first], running[first+1:]...)
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

// TestDispatchReplay pins how close spec-order dispatch comes to the
// best possible makespan on real per-scenario times, as makespan ÷ lower
// bound for every recorded grid at P = 2, 4 and 8. Wall clock cannot show
// dispatch quality on a one-core host, and timings vary by machine;
// replaying committed recordings through the executor's reorder window
// makes the figure exact and host-independent. The recordings and the
// rankings spec order was chosen over are described in ARCHITECTURE.md
// §"Dispatch order".
func TestDispatchReplay(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %2s %9s\n", "grid", "P", "spec")
	for _, grid := range replayGrids {
		durs := loadReplay(t, grid)
		for _, p := range []int{2, 4, 8} {
			fmt.Fprintf(&b, "%-12s %2d %9.3f\n", grid, p, replayRatio(durs, replayMakespan(durs, p), p))
		}
	}
	got := b.String()
	const want = `grid          P      spec
fig9-window   2     1.003
fig9-window   4     1.006
fig9-window   8     1.007
fig9-lfd      2     1.005
fig9-lfd      4     1.149
fig9-lfd      8     1.155
mixed         2     1.005
mixed         4     1.029
mixed         8     1.073
`
	if got != want {
		t.Errorf("dispatch replay table changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
