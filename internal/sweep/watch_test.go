package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
	plain, err := Executor{Workers: 2}.RunSummaries(spec)
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
	watched, err := ex.RunSummaries(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-prodErr; err != nil {
		t.Fatal(err)
	}

	if len(watched.Rows) != len(plain.Rows) {
		t.Fatalf("watched %d rows, plain %d", len(watched.Rows), len(plain.Rows))
	}
	for i := range watched.Rows {
		a, b := &watched.Rows[i], &plain.Rows[i]
		if a.Scenario.Name() != b.Scenario.Name() || a.Counters != b.Counters || !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("row %d (%s): watched serve diverged from the live run", i, b.Scenario.Name())
		}
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

// TestCancelSymptomNeverDisplacesCause pins root-cause error reporting:
// when scenario 1 fails and cancels the sweep, scenario 0 — blocked in
// the store wait until the cancellation has happened — returns "sweep
// cancelled while waiting for the store". Its lower position must not
// let that symptom replace the failure that caused it. The onCancel hook
// sequences the two workers, so the outcome does not depend on timing.
func TestCancelSymptomNeverDisplacesCause(t *testing.T) {
	spec := fig9Spec(t, 4)
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	store := openStore(t)
	// Scenario 1's entry lacks the baseline this sweep needs: serving it
	// fails at once, without consulting the pool.
	if err := store.Put(keys[1], &resultstore.Entry{Run: &resultstore.Run{}}); err != nil {
		t.Fatal(err)
	}
	cancelled := make(chan struct{})
	ex := Executor{
		Workers: 2, Store: store, RequireStored: true, SpecOrderDispatch: true,
		StoreWait: &StoreWait{Poll: time.Hour, Done: func() (bool, error) {
			<-cancelled // scenario 0 waits until scenario 1 has failed the sweep
			return false, nil
		}},
	}
	ex.onCancel = func() { close(cancelled) }
	err = ex.Collect(spec, Discard)
	if err == nil {
		t.Fatal("sweep over a damaged entry succeeded")
	}
	want := fmt.Sprintf("sweep: scenario 1 (%s): entry in result store %s lacks a part this sweep needs (damaged store?)",
		mustScenarioName(t, spec, 1), store.Dir())
	if err.Error() != want {
		t.Errorf("error = %q, want the root cause %q", err, want)
	}
	if errors.Is(err, errCancelled) {
		t.Error("reported error is a cancellation symptom")
	}
}
