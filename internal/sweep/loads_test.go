package sweep

import (
	"sync"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/storetest"
)

// loadCounter is a Backend that counts Load calls per key.
type loadCounter struct {
	resultstore.Backend
	mu    sync.Mutex
	loads map[string]int
}

func (b *loadCounter) Load(key string) ([]byte, bool) {
	b.mu.Lock()
	b.loads[key]++
	b.mu.Unlock()
	return b.Backend.Load(key)
}

// take returns the loads counted so far and starts a fresh count.
func (b *loadCounter) take() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	got := b.loads
	b.loads = make(map[string]int)
	return got
}

// wantLoads checks that got holds exactly one load of every key in want
// and nothing else.
func wantLoads(t *testing.T, what string, got map[string]int, want []string) {
	t.Helper()
	for _, k := range want {
		if got[k] != 1 {
			t.Errorf("%s: %d loads of %s, want 1", what, got[k], k[:12])
		}
		delete(got, k)
	}
	for k, n := range got {
		t.Errorf("%s: %d unexpected loads of %s", what, n, k[:12])
	}
}

// TestWarmCollectLoadsEachEntryOnce is the single-read pin, on every
// backend. A cold populate loads each owned scenario key once (its miss)
// and nothing else. A fully warm Collect loads exactly the same: each
// owned scenario's entry once, to serve it; the baselines its entries
// share are computed, not loaded. Neither makes an artifact operation.
// Before its first dispatch the warm Collect loads at most the dispatched
// scenario's entry, so no pass over the store precedes the work.
func TestWarmCollectLoadsEachEntryOnce(t *testing.T) {
	spec := twoWorkloadSpec(t, 4, 5)
	spec.Shard = Shard{Index: 1, Count: 2} // owned ⊂ grid: unowned keys must stay unread
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := spec.scenarioKeysFor(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	var owned []string
	for _, sc := range scenarios {
		if spec.Shard.Owns(sc.Index) {
			owned = append(owned, keys[sc.Index])
		}
	}

	for _, bk := range storetest.Backends() {
		t.Run(bk.Name, func(t *testing.T) {
			base, _ := bk.Open(t)
			counter := &loadCounter{Backend: base.Backend(), loads: make(map[string]int)}
			store := resultstore.FromBackend(counter)

			if err := (Executor{Workers: 2, Store: store}).Collect(spec, Discard); err != nil {
				t.Fatal(err)
			}
			wantLoads(t, "cold populate", counter.take(), owned)

			var early map[string]int
			first := -1
			ex := Executor{Workers: 2, Store: store}
			ex.observeDispatch = func(i int) {
				if early == nil {
					early, first = counter.take(), i
				}
			}
			if err := ex.Collect(spec, Discard); err != nil {
				t.Fatal(err)
			}
			// The first dispatched worker may already have loaded its own
			// entry when the hook runs; any earlier pass would show more.
			rest := counter.take()
			for k, n := range early {
				if k != keys[first] || n != 1 {
					t.Errorf("warm Collect loaded %s %d times before its first dispatch, want at most the dispatched scenario's entry, once", k[:12], n)
				}
				rest[k] += n
			}
			wantLoads(t, "warm Collect", rest, owned)
			if hits, misses, _ := store.Stats(); hits != int64(len(owned)) || misses != int64(len(owned)) {
				t.Errorf("stats hits=%d misses=%d, want %d cold misses then %d warm hits", hits, misses, len(owned), len(owned))
			}
			if hits, misses, puts := store.ArtifactStats(); hits+misses+puts != 0 {
				t.Errorf("artifacts: %d hits, %d misses, %d puts; want none", hits, misses, puts)
			}
		})
	}
}
