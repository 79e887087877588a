package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/simtime"
)

// rtrrepro runs the command in-process and returns its stdout, stderr
// and error.
func rtrrepro(args ...string) (stdout, stderr string, err error) {
	var out, errOut bytes.Buffer
	err = run(args, &out, &errOut)
	return out.String(), errOut.String(), err
}

// rtrreproOK is rtrrepro for a run that must succeed.
func rtrreproOK(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, err := rtrrepro(args...)
	if err != nil {
		t.Fatalf("rtrrepro %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout, stderr
}

// TestDriveModes runs every campaign mode over fs backends: a pool
// merge refused before the pool drained, a two-loop populate, a merge
// equal to the plain report, a watch merge resumed from a saved offset,
// manual shards, and the -store-gc and -coord-status exits.
func TestDriveModes(t *testing.T) {
	t.Setenv("RTR_STORE", "")
	suiteArgs := []string{"-only", "fig9a,fig9c", "-apps", "40", "-rus", "4-5"}
	plain, _ := rtrreproOK(t, suiteArgs...)
	dir := t.TempDir()
	coordDir := filepath.Join(dir, "coord")
	pool := append(suiteArgs, "-store", filepath.Join(dir, "store"), "-coord", coordDir)

	if _, err := coord.Open(coord.Config{Dir: coordDir, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	_, _, err := rtrrepro(append(pool, "-merge-report")...)
	if err == nil || !strings.Contains(err.Error(), "has not drained (0 done, 0 leased, 2 pending of 2 shards)") {
		t.Errorf("merge over an undrained pool: err = %v, want the refusal with its tally", err)
	}

	_, stderr := rtrreproOK(t, append(pool, "-coord-workers", "2")...)
	for _, shard := range []string{"shard 0/2: ran", "shard 1/2: ran"} {
		if n := strings.Count(stderr, shard); n != 1 {
			t.Errorf("stderr reports %q %d times, want once:\n%s", shard, n, stderr)
		}
	}
	if !strings.Contains(stderr, "coord pool drained: all 2 shards done") {
		t.Errorf("populate stderr lacks the pool summary:\n%s", stderr)
	}
	if got, _ := rtrreproOK(t, append(pool, "-merge-report")...); got != plain {
		t.Errorf("merge over the pool printed\n%s\nwant (plain run)\n%s", got, plain)
	}

	// A watch merge killed after 100 bytes left that offset; the rerun
	// prints the rest, and completing resets the offset.
	fig9a, _ := experiments.ByID("fig9a")
	fig9c, _ := experiments.ByID("fig9c")
	fp := coordFingerprint(experiments.Options{Seed: 2011, Apps: 40, RUs: []int{4, 5}, Latency: simtime.FromMs(4)},
		[]experiments.Experiment{fig9a, fig9c})
	cks := coord.NewCheckpointStore(coord.NewFS(coordDir))
	campaign.SaveMergeOffset(cks, fp, 100)
	resumed, stderr := rtrreproOK(t, append(pool, "-merge-report", "-watch")...)
	if !strings.Contains(stderr, "merge checkpoint: resuming at byte offset 100\n") {
		t.Errorf("resumed watch merge stderr lacks the resume line:\n%s", stderr)
	}
	if plain[:100]+resumed != plain {
		t.Errorf("partial + resumed output\n%s\nwant (plain run)\n%s", plain[:100]+resumed, plain)
	}
	if off := campaign.LoadMergeOffset(cks, fp); off != 0 {
		t.Errorf("completed watch merge left offset %d, want 0", off)
	}

	// The two exits print on stdout, before -rus and -only are parsed.
	status, _ := rtrreproOK(t, "-coord", coordDir, "-coord-status", "-rus", "x", "-only", "nope")
	if want := "coordinator " + coordDir + ": 2 shards, 2 done, 0 leased, 0 pending\n"; !strings.HasPrefix(status, want) {
		t.Errorf("-coord-status printed\n%s\nwant it to begin %q", status, want)
	}

	shardStore := filepath.Join(dir, "shards")
	for i := 0; i < 2; i++ {
		_, stderr := rtrreproOK(t, append(suiteArgs, "-store", shardStore, "-shard", fmt.Sprintf("%d/2", i))...)
		digest := fmt.Sprintf("shard %d/2: ran ", i)
		if !strings.HasPrefix(stderr, digest) || !strings.Contains(stderr, "grid scenarios across 2 grids") ||
			!strings.Contains(stderr, "\nresult store: ") {
			t.Errorf("-shard %d/2 stderr\n%s\nwant the shard digest, then the store digest", i, stderr)
		}
	}
	if got, _ := rtrreproOK(t, append(suiteArgs, "-store", shardStore, "-merge-report")...); got != plain {
		t.Errorf("merge over the shards printed\n%s\nwant (plain run)\n%s", got, plain)
	}

	gc, _ := rtrreproOK(t, "-store", shardStore, "-store-gc", "-rus", "x", "-only", "nope")
	if !strings.HasPrefix(gc, "store gc: removed 0 stale entries") {
		t.Errorf("-store-gc printed %q", gc)
	}
}
