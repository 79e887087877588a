package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/resultstore"
)

func TestStoreFlagResolution(t *testing.T) {
	if s, err := resultstore.OpenIfSet("", false); err != nil || s != nil {
		t.Errorf("empty dir: store %v, err %v", s, err)
	}
	if s, err := resultstore.OpenIfSet(t.TempDir(), true); err != nil || s != nil {
		t.Errorf("-no-store: store %v, err %v", s, err)
	}
	s, err := resultstore.OpenIfSet(t.TempDir(), false)
	if err != nil || s == nil {
		t.Fatalf("valid dir: store %v, err %v", s, err)
	}
	if hits, misses, puts := s.Stats(); hits+misses+puts != 0 {
		t.Error("fresh store has non-zero stats")
	}
	if _, err := resultstore.RunGC(nil); err == nil {
		t.Error("-store-gc without a store accepted")
	}
	line, err := resultstore.RunGC(s)
	if err != nil {
		t.Fatal(err)
	}
	if line != "store gc: removed 0 stale entries, kept 0 ("+s.Dir()+")" {
		t.Errorf("gc line %q", line)
	}
}

// rtrsimOutput runs the command in-process and returns its stdout and
// stderr.
func rtrsimOutput(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("rtrsim %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestSingleRunStoreIndependent: a single run prints the same report
// with no store, into a cold store and from a warm one.
func TestSingleRunStoreIndependent(t *testing.T) {
	t.Setenv("RTR_STORE", "")
	for _, args := range [][]string{
		{"-policy", "lru"},
		{"-policy", "locallfd:1", "-skip"},
		{"-policy", "lfd", "-prefetch"},
		{"-policy", "random:7", "-rus", "5"},
		{"-workload", "fig3", "-policy", "locallfd:1", "-skip"},
		{"-workload", "fig2", "-policy", "mru", "-latency", "0"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			want, _ := rtrsimOutput(t, args...)
			withStore := append(args, "-store", filepath.Join(t.TempDir(), "store"))
			for _, pass := range []struct{ name, digest string }{
				{"cold", "0 hits, 1 misses, 1 entries written"},
				{"warm", "1 hits, 0 misses, 0 entries written"},
			} {
				got, stderr := rtrsimOutput(t, withStore...)
				if got != want {
					t.Errorf("%s store: stdout\n%s\nwant (no store)\n%s", pass.name, got, want)
				}
				if !strings.Contains(stderr, "result store: "+pass.digest) {
					t.Errorf("%s store: stderr %q lacks %q", pass.name, stderr, pass.digest)
				}
			}
		})
	}
}

// TestGanttBypassesStore: a schedule view needs the trace, which the
// store does not keep, so -gantt with -store prints what -gantt alone
// prints and writes no result entry.
func TestGanttBypassesStore(t *testing.T) {
	t.Setenv("RTR_STORE", "")
	scenario := []string{"-workload", "fig3", "-policy", "locallfd:1", "-skip"}
	gantt := append([]string{"-gantt"}, scenario...)
	want, _ := rtrsimOutput(t, gantt...)
	dir := filepath.Join(t.TempDir(), "store")
	got, stderr := rtrsimOutput(t, append(gantt, "-store", dir)...)
	if got != want {
		t.Errorf("-gantt -store: stdout\n%s\nwant (no store)\n%s", got, want)
	}
	if !strings.Contains(stderr, "result store: 0 hits, 0 misses, 0 entries written") {
		t.Errorf("-gantt -store touched the result store: %q", stderr)
	}
	// Without the view the same scenario is a miss: nothing was stored.
	if _, stderr := rtrsimOutput(t, append(scenario, "-store", dir)...); !strings.Contains(stderr, "0 hits, 1 misses") {
		t.Errorf("a -gantt run left a result entry behind: %q", stderr)
	}
}

// TestCoordWorkersShareStderr: the -coord-workers claim loops print
// their progress to one stderr at once, so run serializes the writes
// (the race detector checks them here, on a bytes.Buffer). Each shard is
// reported once, and a merge over the drained pool prints what a plain
// sweep prints.
func TestCoordWorkersShareStderr(t *testing.T) {
	t.Setenv("RTR_STORE", "")
	dir := t.TempDir()
	sweepArgs := []string{"-policy", "lru,locallfd:1", "-rus", "4-5", "-apps", "40"}
	want, _ := rtrsimOutput(t, sweepArgs...)
	pool := append(sweepArgs, "-store", filepath.Join(dir, "store"), "-coord", filepath.Join(dir, "coord"))
	_, stderr := rtrsimOutput(t, append(pool, "-coord-shards", "2", "-coord-workers", "2")...)
	for _, shard := range []string{"shard 0/2:", "shard 1/2:"} {
		if n := strings.Count(stderr, shard); n != 1 {
			t.Errorf("stderr reports %q %d times, want once:\n%s", shard, n, stderr)
		}
	}
	if got, _ := rtrsimOutput(t, append(pool, "-merge-report")...); got != want {
		t.Errorf("merge over the pool printed\n%s\nwant (plain sweep)\n%s", got, want)
	}
}
