package sweep

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/resultstore"
)

// TestStoreWaitServesAsEntriesLand is the executor half of the watch
// merge: a RequireStored sweep with a StoreWait starts against an empty
// store, a producer populates it concurrently, and every scenario is
// served the moment its entry appears — with results identical to a
// plain live run and the consumer's store handle reporting pure hits
// (the Has polling never counts as misses).
func TestStoreWaitServesAsEntriesLand(t *testing.T) {
	spec := fig9Spec(t, 4)
	plain, err := Executor{Workers: 2}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	store := openStore(t)
	var producerDone atomic.Bool
	prodErr := make(chan error, 1)
	go func() {
		// The consumer below is already polling when this starts.
		time.Sleep(50 * time.Millisecond)
		err := (Executor{Workers: 1, Store: store}).Collect(spec, Discard)
		producerDone.Store(true)
		prodErr <- err
	}()

	// A second handle on the same directory keeps the consumer's hit/miss
	// accounting separate from the producer's.
	consumer, err := resultstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	ex := Executor{
		Workers: 2, Store: consumer, RequireStored: true,
		StoreWait: &StoreWait{Poll: 5 * time.Millisecond, Done: func() (bool, error) {
			return producerDone.Load(), nil
		}},
	}
	watched, err := ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-prodErr; err != nil {
		t.Fatal(err)
	}

	if got, want := condenseAll(watched.Results), condenseAll(plain.Results); !sameRows(got, want) {
		t.Errorf("watched serve diverged from the live run:\n got %+v\nwant %+v", got, want)
	}
	hits, misses, puts := consumer.Stats()
	if misses != 0 || puts != 0 {
		t.Errorf("watch consumer stats: %d misses, %d puts — polling must never count misses or write", misses, puts)
	}
	if hits != int64(spec.Size()) {
		t.Errorf("watch consumer served %d hits, want %d", hits, spec.Size())
	}
}

// TestStoreWaitDrainedMissMeansError: once Done reports the pool
// drained, a still-missing scenario is RequireStored's hard error — a
// watch merge against a pool that ran a different grid fails, it does
// not hang.
func TestStoreWaitDrainedMissMeansError(t *testing.T) {
	spec := fig9Spec(t, 4)
	ex := Executor{
		Workers: 2, Store: openStore(t), RequireStored: true,
		StoreWait: &StoreWait{Poll: time.Millisecond, Done: func() (bool, error) { return true, nil }},
	}
	err := ex.Collect(spec, Discard)
	if err == nil {
		t.Fatal("empty store + drained pool succeeded")
	}
	if !strings.Contains(err.Error(), "after the pool drained") {
		t.Errorf("error %q does not name the drained pool", err)
	}
}

// TestStoreWaitDeadPoolFailsSweep: a Done error (the dead-pool verdict)
// fails the sweep promptly instead of polling forever.
func TestStoreWaitDeadPoolFailsSweep(t *testing.T) {
	spec := fig9Spec(t, 4)
	var polls atomic.Int64
	ex := Executor{
		Workers: 2, Store: openStore(t), RequireStored: true,
		StoreWait: &StoreWait{Poll: time.Millisecond, Done: func() (bool, error) {
			if polls.Add(1) < 3 {
				return false, nil // look alive for a couple of polls first
			}
			return false, fmt.Errorf("pool looks dead")
		}},
	}
	done := make(chan error, 1)
	go func() { done <- ex.Collect(spec, Discard) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "pool looks dead") {
			t.Errorf("error %q does not carry the liveness verdict", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dead pool hung the sweep")
	}
}

// TestStoreWaitRequiresRequireStored: waiting is only meaningful for a
// store-only merge; misconfiguration is refused up front.
func TestStoreWaitRequiresRequireStored(t *testing.T) {
	ex := Executor{Store: openStore(t), StoreWait: &StoreWait{Done: func() (bool, error) { return true, nil }}}
	if err := ex.Collect(fig9Spec(t, 4), Discard); err == nil || !strings.Contains(err.Error(), "RequireStored") {
		t.Errorf("StoreWait without RequireStored gave %v, want a pointed refusal", err)
	}
}

// TestStoreOnlySweepUsesNoPool: a store-only sweep of a cacheable spec
// simulates nothing, so Collect reads it on the collecting goroutine and
// hands no scenario to its pool, with or without a StoreWait, however
// many workers it is given. An uncacheable spec still runs live, on the
// pool.
func TestStoreOnlySweepUsesNoPool(t *testing.T) {
	spec := fig9Spec(t, 4, 5)
	store := openStore(t)
	if err := (Executor{Workers: 2, Store: store}).Collect(spec, Discard); err != nil {
		t.Fatal(err)
	}
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, wait := range []*StoreWait{nil, {Poll: time.Millisecond, Done: func() (bool, error) { return true, nil }}} {
		dispatched := 0
		ex := Executor{Workers: 4, Store: store, RequireStored: true, StoreWait: wait}
		ex.observeDispatch = func(int) { dispatched++ }
		rs, err := ex.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if dispatched != 0 {
			t.Errorf("StoreWait %v: the store-only sweep handed %d scenarios to its pool, want none", wait != nil, dispatched)
		}
		if got, want := condenseAll(rs.Results), condenseAll(want.Results); !sameRows(got, want) {
			t.Errorf("StoreWait %v: served rows differ from a live run", wait != nil)
		}
	}

	live := spec
	live.Policies = []PolicySpec{{Name: "hand-built", New: func() (policy.Policy, error) { return policy.NewLRU(), nil }}}
	dispatched := 0
	ex := Executor{Workers: 2, Store: store, RequireStored: true}
	ex.observeDispatch = func(int) { dispatched++ }
	if err := ex.Collect(live, Discard); err != nil {
		t.Fatal(err)
	}
	if dispatched != live.Size() {
		t.Errorf("uncacheable RequireStored sweep dispatched %d of %d scenarios, want all (they run live)", dispatched, live.Size())
	}
}

// TestStoreOnlySweepFailsAtFirstInSpecOrder pins root-cause error
// reporting of a store-only sweep: with scenario 0 missing and scenario
// 1's entry damaged, the sweep reports scenario 0, the first in spec
// order it cannot serve. A watch merge polls only that head scenario, so
// it reads nothing of scenario 1 before the pool has had its say.
func TestStoreOnlySweepFailsAtFirstInSpecOrder(t *testing.T) {
	spec := fig9Spec(t, 4)
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	counter := &loadCounter{Backend: resultstore.OpenMem().Backend(), loads: make(map[string]int)}
	store := resultstore.FromBackend(counter)
	// Scenario 1's entry lacks the baseline this sweep needs.
	if err := store.Put(keys[1], &resultstore.Entry{Run: &resultstore.Run{}}); err != nil {
		t.Fatal(err)
	}
	name0 := mustScenarioName(t, spec, 0)

	_, err = Executor{Workers: 2, Store: store, RequireStored: true}.Run(spec)
	if want := fmt.Sprintf("sweep: scenario 0 (%s): not in result store %s (did every shard run?)", name0, store.Dir()); err == nil || err.Error() != want {
		t.Errorf("error = %v, want %q", err, want)
	}

	counter.take()
	polls := 0
	ex := Executor{Workers: 2, Store: store, RequireStored: true,
		StoreWait: &StoreWait{Poll: time.Millisecond, Done: func() (bool, error) {
			polls++
			return polls > 3, nil
		}}}
	_, err = ex.Run(spec)
	if want := fmt.Sprintf("sweep: scenario 0 (%s): not in result store %s after the pool drained (did its workers run the same grid?)", name0, store.Dir()); err == nil || err.Error() != want {
		t.Errorf("watch error = %v, want %q", err, want)
	}
	loads := counter.take()
	if loads[keys[0]] != 5 || len(loads) != 1 {
		t.Errorf("watch merge loads = %v, want five probes of scenario 0 (four polls and the last look) and nothing else", loads)
	}
}
