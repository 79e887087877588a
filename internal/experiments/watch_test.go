package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/resultstore"
	"repro/internal/sweep"
)

// fig9Experiments returns the three Fig. 9 experiments, the golden
// subjects of the watch-mode acceptance criterion.
func fig9Experiments(t *testing.T) []Experiment {
	t.Helper()
	exps := make([]Experiment, 0, 3)
	for _, id := range []string{"fig9a", "fig9b", "fig9c"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		exps = append(exps, e)
	}
	return exps
}

func renderAll(t *testing.T, exps []Experiment, opt Options) string {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range exps {
		if err := e.Run(opt, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	return buf.String()
}

// TestWatchMergeGoldenFig9 is the acceptance pin for the live merge
// pipeline: a watch-mode merge STARTED BEFORE ANY SHARD IS POPULATED
// must block, consume scenarios as a coordinator pool stores them, and
// emit a fig9 report byte-identical to a plain single-process run — with
// the merge-side store handle reporting pure hits (its polling counts no
// misses and writes nothing).
func TestWatchMergeGoldenFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweeps in -short mode")
	}
	base := Options{Seed: 2011, Apps: 40, RUs: []int{4, 5}}
	exps := fig9Experiments(t)
	plain := renderAll(t, exps, base)

	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coordDir := t.TempDir()
	// A generous TTL: the pool must never look dead on a slow CI host;
	// this test exercises the waiting path, not expiry (see the dead-pool
	// test below for that).
	const ttl = time.Minute
	pool, err := coord.Open(coord.Config{Backend: coord.NewFS(coordDir), Shards: 4, Owner: "workers", LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	popErr := make(chan error, 1)
	go func() {
		// Give the merge a head start so it provably begins against an
		// empty store and has to wait for rows.
		time.Sleep(100 * time.Millisecond)
		popOpt := base
		popOpt.Store = store
		_, err := pool.RunWorkers(2, func(r coord.ShardRun) error {
			_, err := Populate(popOpt, exps, sweep.Shard{Index: r.Shard, Count: r.Count})
			return err
		})
		popErr <- err
	}()

	// The merge side: its own store handle (clean hit/miss accounting)
	// and its own coordinator handle adopting the pool's parameters.
	mergeStore, err := resultstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	mergeC, err := coord.Open(coord.Config{Backend: coord.NewFS(coordDir), Owner: "merge"})
	if err != nil {
		t.Fatal(err)
	}
	mergeOpt := base
	mergeOpt.Store = mergeStore
	mergeOpt.RequireStored = true
	mergeOpt.StoreWait = &sweep.StoreWait{Poll: 10 * time.Millisecond, Done: mergeC.Drained}
	merged := renderAll(t, exps, mergeOpt)
	if err := <-popErr; err != nil {
		t.Fatal(err)
	}

	if merged != plain {
		t.Errorf("watch merge diverged from the single-process run:\n--- plain ---\n%s\n--- merged ---\n%s", plain, merged)
	}
	hits, misses, puts := mergeStore.Stats()
	if misses != 0 || puts != 0 {
		t.Errorf("watch merge stats: %d misses, %d puts — waiting must neither count misses nor write", misses, puts)
	}
	if hits == 0 {
		t.Error("watch merge never read the store")
	}
}

// TestWatchMergeDeadPoolErrors is the liveness half: a watch merge
// against a pool whose only worker claimed a shard and died must fail
// with the dead-pool verdict once the lease TTL passes — an error, never
// a hang.
func TestWatchMergeDeadPoolErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweeps in -short mode")
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coordDir := t.TempDir()
	const ttl = 300 * time.Millisecond
	dead, err := coord.Open(coord.Config{Backend: coord.NewFS(coordDir), Shards: 2, Owner: "dead-worker", LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	// The worker claims a shard and is never heard from again.
	if lease, err := dead.Claim(); err != nil || lease == nil {
		t.Fatal(lease, err)
	}

	mergeC, err := coord.Open(coord.Config{Backend: coord.NewFS(coordDir), Owner: "merge"})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := ByID("fig9b")
	if !ok {
		t.Fatal("fig9b missing")
	}
	opt := Options{Seed: 2011, Apps: 20, RUs: []int{4}}
	opt.Store = store
	opt.RequireStored = true
	opt.StoreWait = &sweep.StoreWait{Poll: 10 * time.Millisecond, Done: mergeC.Drained}

	errCh := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		errCh <- e.Run(opt, &buf)
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("watch merge against a dead pool succeeded")
		}
		if !strings.Contains(err.Error(), "looks dead") {
			t.Errorf("error %q does not carry the dead-pool verdict", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("watch merge hung on a dead pool — liveness broken")
	}
}
