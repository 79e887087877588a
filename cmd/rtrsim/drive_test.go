package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coord"
)

// TestDriveModes runs every campaign mode over fs backends: a pool
// merge refused before the pool drained, a watch merge resumed from a
// saved offset, manual shards, and the -store-gc and -coord-status
// exits. TestCoordWorkersShareStderr covers the two-loop populate and
// the merge after it.
func TestDriveModes(t *testing.T) {
	t.Setenv("RTR_STORE", "")
	sweepArgs := []string{"-policy", "lru,locallfd:1", "-rus", "4-5", "-apps", "40"}
	plain, _ := rtrsimOutput(t, sweepArgs...)
	dir := t.TempDir()
	coordDir := filepath.Join(dir, "coord")
	pool := append(sweepArgs, "-store", filepath.Join(dir, "store"), "-coord", coordDir)

	if _, err := coord.Open(coord.Config{Backend: coord.NewFS(coordDir), Shards: 2}); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run(append(pool, "-merge-report"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "coordinator pool "+coordDir+" has not drained (0 done, 0 leased, 2 pending of 2 shards)") {
		t.Errorf("merge over an undrained pool: err = %v, want the refusal with its tally", err)
	}
	_, stderr := rtrsimOutput(t, pool...)
	if !strings.Contains(stderr, "shard 0/2: ran 2 of 4 scenarios (2 skipped by other shards) (attempt 1)\n") {
		t.Errorf("populate stderr lacks shard 0's digest:\n%s", stderr)
	}

	// A watch merge killed after 100 bytes left that offset; the rerun
	// prints the rest, and completing resets the offset.
	spec, err := campaign.SweepGrid("multimedia", 40, 2011, "lru,locallfd:1", false, false, []int{4, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sweepFingerprint("multimedia", &spec)
	if err != nil {
		t.Fatal(err)
	}
	cks := coord.NewCheckpointStore(coord.NewFS(coordDir))
	campaign.SaveMergeOffset(cks, fp, 100)
	resumed, stderr := rtrsimOutput(t, append(pool, "-merge-report", "-watch")...)
	if !strings.Contains(stderr, "merge checkpoint: resuming at byte offset 100\n") {
		t.Errorf("resumed watch merge stderr lacks the resume line:\n%s", stderr)
	}
	if plain[:100]+resumed != plain {
		t.Errorf("partial + resumed output\n%s\nwant (plain sweep)\n%s", plain[:100]+resumed, plain)
	}
	if off := campaign.LoadMergeOffset(cks, fp); off != 0 {
		t.Errorf("completed watch merge left offset %d, want 0", off)
	}

	// The two exits print on stdout, before -rus and -policy are parsed.
	status, _ := rtrsimOutput(t, "-coord", coordDir, "-coord-status", "-rus", "x", "-policy", "nope")
	if want := "coordinator " + coordDir + ": 2 shards, 2 done, 0 leased, 0 pending\n"; !strings.HasPrefix(status, want) {
		t.Errorf("-coord-status printed\n%s\nwant it to begin %q", status, want)
	}

	shardStore := filepath.Join(dir, "shards")
	for i := 0; i < 2; i++ {
		_, stderr := rtrsimOutput(t, append(sweepArgs, "-store", shardStore, "-shard", fmt.Sprintf("%d/2", i))...)
		want := fmt.Sprintf("shard %d/2: ran 2 of 4 scenarios (2 skipped by other shards)\nresult store: 0 hits, 2 misses, 2 entries written", i)
		if !strings.HasPrefix(stderr, want) {
			t.Errorf("-shard %d/2 stderr\n%s\nwant it to begin\n%s", i, stderr, want)
		}
	}
	if got, _ := rtrsimOutput(t, append(sweepArgs, "-store", shardStore, "-merge-report")...); got != plain {
		t.Errorf("merge over the shards printed\n%s\nwant (plain sweep)\n%s", got, plain)
	}

	gc, _ := rtrsimOutput(t, "-store", shardStore, "-store-gc", "-rus", "x", "-policy", "nope")
	if !strings.HasPrefix(gc, "store gc: removed 0 stale entries, kept 4") {
		t.Errorf("-store-gc printed %q", gc)
	}
}
