package manager

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

const runGoldenFile = "testdata/run_golden.txt"

// goldenCase is one pinned run: a configuration and the feed it consumes.
type goldenCase struct {
	name string
	cfg  Config
	feed func() *dynlist.SliceFeed
}

// goldenCases returns the configurations whose outcome digests
// testdata/run_golden.txt pins: the thirteen hot-loop configurations plus
// per-task latencies, forced postponements, zero latency, timed arrivals
// that coincide with the ends of loads and executions, and graphs whose
// parallel tasks end at the same instant.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	seq, loops := loopCases(t)
	sequence := func() *dynlist.SliceFeed { return dynlist.NewSequence(seq...) }
	var cases []goldenCase
	for _, c := range loops {
		cases = append(cases, goldenCase{c.name, c.cfg, sequence})
	}

	lat := workload.PaperLatency()
	ones := []int{1, 1, 1, 1, 1, 1, 1, 1}
	mobOne := func(g *taskgraph.Graph) []int { return ones[:g.NumTasks()] }
	cases = append(cases,
		goldenCase{"LatencyFor", Config{
			RUs: 4, Latency: lat, Policy: mustLocalLFD(t, 2), SkipEvents: true, Mobility: mobOne,
			LatencyFor: func(id taskgraph.TaskID) simtime.Time { return ms(float64(1 + id%5)) },
		}, sequence},
		goldenCase{"DelayPlan", Config{
			RUs: 3, Latency: lat, Policy: policy.NewLRU(), DelayPlan: map[int]int{0: 2, 1: 1, 3: 3},
		}, sequence},
		goldenCase{"ZeroLatency", Config{RUs: 4, Policy: policy.NewLRU()}, sequence},
		goldenCase{"ZeroLatency+Skip+Prefetch", Config{
			RUs: 3, Policy: mustLocalLFD(t, 1), SkipEvents: true, Mobility: mobOne,
			CrossGraphPrefetch: true,
		}, sequence},
	)

	// Timed arrivals on a 0.5 ms grid land on the ends of 4 ms loads and
	// 2.5/4 ms executions, so every kind of tie occurs.
	rng := rand.New(rand.NewSource(2011))
	tg1, tg2 := workload.Fig2TG1(), workload.Fig2TG2()
	var timed []dynlist.Item
	var at simtime.Time
	for i := 0; i < 60; i++ {
		at += ms(0.5 * float64(rng.Intn(12)))
		g := tg1
		if rng.Intn(2) == 0 {
			g = tg2
		}
		timed = append(timed, dynlist.Item{Graph: g, Arrival: at})
	}
	timedFeed := func() *dynlist.SliceFeed {
		f, err := dynlist.NewTimed(timed)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	cases = append(cases,
		goldenCase{"TimedTies/LRU", Config{RUs: 2, Latency: lat, Policy: policy.NewLRU()}, timedFeed},
		goldenCase{"TimedTies/LocalLFD1+Skip", Config{
			RUs: 2, Latency: lat, Policy: mustLocalLFD(t, 1), SkipEvents: true, Mobility: mobOne,
		}, timedFeed},
		goldenCase{"TimedTies/LFD+Prefetch", Config{
			RUs: 3, Latency: lat, Policy: policy.NewLFD(), CrossGraphPrefetch: true,
		}, timedFeed},
		goldenCase{"TimedTies/ZeroLatency", Config{RUs: 2, Policy: policy.NewLRU()}, timedFeed},
	)

	// Parallel branches that end together: equal executions started at
	// once (when every branch is reused), and staggered loads whose
	// executions are sized to end at one instant.
	equal := taskgraph.ForkJoin("fj-equal", 1, ms(2), []simtime.Time{ms(4), ms(4), ms(4)}, ms(2), true)
	stagger := taskgraph.ForkJoin("fj-stagger", 11, ms(2), []simtime.Time{ms(12), ms(8), ms(4)}, ms(2), true)
	var ends []*taskgraph.Graph
	for i := 0; i < 12; i++ {
		ends = append(ends, equal, equal, stagger)
	}
	endsFeed := func() *dynlist.SliceFeed { return dynlist.NewSequence(ends...) }
	cases = append(cases,
		goldenCase{"EqualEnds/LRU", Config{RUs: 5, Latency: lat, Policy: policy.NewLRU()}, endsFeed},
		goldenCase{"EqualEnds/LocalLFD1+Skip", Config{
			RUs: 4, Latency: lat, Policy: mustLocalLFD(t, 1), SkipEvents: true, Mobility: mobOne,
		}, endsFeed},
		goldenCase{"EqualEnds/ZeroLatency", Config{RUs: 3, Policy: policy.NewFIFO()}, endsFeed},
	)
	return cases
}

// runDigest is the SHA-256 of everything a run reports: every counter,
// the completion times and the full trace, times in integer nanoseconds.
func runDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "makespan=%d executed=%d reused=%d loads=%d evictions=%d skips=%d forced=%d preloads=%d graphs=%d events=%d\n",
		res.Makespan, res.Executed, res.Reused, res.Loads, res.Evictions,
		res.Skips, res.ForcedSkips, res.Preloads, res.Graphs, res.Events)
	for _, c := range res.Completions {
		fmt.Fprintf(h, "completion %d\n", c)
	}
	for _, l := range res.Trace.Loads {
		fmt.Fprintf(h, "load %d %d %d %d %d %d\n", l.Task, l.RU, l.Start, l.End, l.Evicted, l.Instance)
	}
	for _, e := range res.Trace.Execs {
		fmt.Fprintf(h, "exec %d %d %d %d %t %d\n", e.Task, e.RU, e.Start, e.End, e.Reused, e.Instance)
	}
	for _, s := range res.Trace.Skips {
		fmt.Fprintf(h, "skip %d %d %d %d\n", s.Task, s.Victim, s.At, s.Instance)
	}
	for _, g := range res.Trace.Graphs {
		fmt.Fprintf(h, "graph %s %d %d %d %d\n", g.Name, g.Instance, g.Arrived, g.Started, g.Finished)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunGolden pins the outcome of every golden configuration, digest by
// digest, against testdata/run_golden.txt. The file was recorded before
// the event heap was replaced by the derived event set, so it proves the
// replacement changed no decision, counter or trace record. Run with
// -update only when a change is meant to alter simulation output.
func TestRunGolden(t *testing.T) {
	got := make(map[string]string)
	for _, c := range goldenCases(t) {
		cfg := c.cfg
		cfg.RecordTrace = true
		res, err := Run(cfg, c.feed())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := res.Trace.Validate(res.Templates); err != nil {
			t.Fatalf("%s: trace invalid: %v", c.name, err)
		}
		got[c.name] = runDigest(res)
	}
	if *update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(runGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(runGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", runGoldenFile, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test runs %d configurations", runGoldenFile, len(want), len(got))
	}
	for name, digest := range got {
		if want[name] != digest {
			t.Errorf("%s: digest %s, want %s", name, digest, want[name])
		}
	}
}
