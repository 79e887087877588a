package experiments

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/resultstore"
	"repro/internal/sweep"
)

// TestCoordinatedPopulateMergeByteIdentical is the in-process version of
// cmd/rtrrepro's TestEndToEnd/self-healing: a 6-shard grid drained by a
// 3-worker coordinator pool — with one shard pre-claimed by a simulated
// dead worker that never heartbeats — must still produce a merge render
// byte-identical to a plain single-process run, with the dead worker's
// shard recovered at attempt 2.
func TestCoordinatedPopulateMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweeps in -short mode")
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 2011, Apps: 40, RUs: []int{4, 5}}
	exps := make([]Experiment, 0, 2)
	for _, id := range []string{"fig9b", "variance"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		exps = append(exps, e)
	}
	render := func(opt Options) string {
		var buf bytes.Buffer
		for _, e := range exps {
			if err := e.Run(opt, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		return buf.String()
	}
	plain := render(base)

	coordDir := t.TempDir()
	const shards = 6
	// The dead worker claims a shard and is never heard from again — the
	// pool below must wait out its lease and re-run the slice.
	dead, err := coord.Open(coord.Config{
		Backend: coord.NewFS(coordDir), Shards: shards, Owner: "dead-worker",
		LeaseTTL: 750 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stuck, err := dead.Claim()
	if err != nil || stuck == nil {
		t.Fatal(stuck, err)
	}

	pool, err := coord.Open(coord.Config{
		Backend: coord.NewFS(coordDir), Owner: "pool",
		LeaseTTL: 750 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	popOpt := base
	popOpt.Store = store
	stats, err := pool.RunWorkers(3, func(r coord.ShardRun) error {
		_, err := Populate(popOpt, exps, sweep.Shard{Index: r.Shard, Count: r.Count})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != shards {
		t.Fatalf("pool completed %d shards, want all %d", stats.Completed, shards)
	}
	if stats.Recovered != 1 {
		t.Fatalf("pool recovered %d shards, want exactly the dead worker's 1", stats.Recovered)
	}
	st, err := pool.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.AllDone() {
		t.Fatalf("pool not drained: %+v", st.Shards)
	}
	if st.Shards[stuck.Shard].Attempts != 2 {
		t.Fatalf("dead worker's shard finished at attempt %d, want 2", st.Shards[stuck.Shard].Attempts)
	}

	mergeOpt := base
	mergeOpt.Store = store
	mergeOpt.RequireStored = true
	_, _, putsBefore := store.Stats()
	merged := render(mergeOpt)
	if merged != plain {
		t.Errorf("coordinated merge diverged from the single-process run:\n--- plain ---\n%s\n--- merged ---\n%s", plain, merged)
	}
	if _, _, puts := store.Stats(); puts != putsBefore {
		t.Errorf("merge render wrote %d new entries — a shard was incomplete", puts-putsBefore)
	}
}
