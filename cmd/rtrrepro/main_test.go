package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/simtime"
	"repro/internal/sweep"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments.All()) {
		t.Errorf("empty -only selected %d experiments, want the full suite (%d)",
			len(all), len(experiments.All()))
	}
	some, err := selectExperiments(" fig2 ,fig9a")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].ID != "fig2" || some[1].ID != "fig9a" {
		t.Errorf("selected %v", some)
	}
	if _, err := selectExperiments("fig2,nope"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

// TestCoordFingerprintSensitivity: every sweep parameter a coordinator
// pool depends on must move the fingerprint, and identical launches must
// agree — that is what lets every host run the same command while a
// mis-flagged host is refused at Open.
func TestCoordFingerprintSensitivity(t *testing.T) {
	base := experiments.Options{
		Seed: 2011, Apps: 120, RUs: []int{4, 5, 6}, Latency: simtime.FromMs(4),
	}
	sel := func(ids ...string) []experiments.Experiment {
		var out []experiments.Experiment
		for _, id := range ids {
			e, ok := experiments.ByID(id)
			if !ok {
				t.Fatalf("experiment %q missing", id)
			}
			out = append(out, e)
		}
		return out
	}
	exps := sel("fig9a", "fig9b")
	fp := coordFingerprint(base, exps)
	if fp != coordFingerprint(base, sel("fig9a", "fig9b")) {
		t.Error("fingerprint unstable across identical launches")
	}
	mutations := map[string]func() string{
		"seed":        func() string { o := base; o.Seed = 7; return coordFingerprint(o, exps) },
		"apps":        func() string { o := base; o.Apps = 121; return coordFingerprint(o, exps) },
		"rus":         func() string { o := base; o.RUs = []int{4, 5}; return coordFingerprint(o, exps) },
		"latency":     func() string { o := base; o.Latency = simtime.FromMs(8); return coordFingerprint(o, exps) },
		"experiments": func() string { return coordFingerprint(base, sel("fig9a")) },
	}
	for name, mutate := range mutations {
		if mutate() == fp {
			t.Errorf("changing %s left the coordinator fingerprint unchanged", name)
		}
	}
}

// TestShardDigestFormat pins the stderr line TestEndToEnd greps.
func TestShardDigestFormat(t *testing.T) {
	got := shardDigest(sweep.Shard{Index: 2, Count: 6}, experiments.PopulateStats{
		Grids: 4, Scenarios: 82, Ran: 15, SkippedByShard: 67,
	})
	want := "shard 2/6: ran 15 of 82 grid scenarios across 4 grids (67 skipped by other shards)"
	if got != want {
		t.Errorf("shard digest\n got %q\nwant %q", got, want)
	}
}

// TestFailedRunFlushesProfiles: a run that fails after its profiles
// started still writes them, so the run one wants to inspect is the one
// that left a profile.
func TestFailedRunFlushesProfiles(t *testing.T) {
	t.Setenv("RTR_STORE", "")
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "-only", "fig2,nope"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("failed run left profile %s empty or missing: %v", filepath.Base(p), err)
		}
	}
}
