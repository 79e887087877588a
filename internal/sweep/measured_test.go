package sweep

import (
	"testing"
	"time"

	"repro/internal/resultstore"
	"repro/internal/storetest"
)

// fabricateTimings writes one minimal store entry per scenario whose
// measured elapsed time is controlled by the caller: elapsed(i) is the
// recorded wall time for spec index i. The entries are valid for the
// current schema, so they also serve as hits.
func fabricateTimings(t *testing.T, store *resultstore.Store, spec Spec, elapsed func(i int) time.Duration) []string {
	t.Helper()
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		ent := &resultstore.Entry{
			ElapsedNS: int64(elapsed(i)),
			Run:       &resultstore.Run{Executed: 1, Graphs: 1},
		}
		if err := store.Put(key, ent); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestMeasuredCostDispatchOrder pins the measured-cost feed: with a store
// carrying per-scenario wall times, dispatch must follow the measurements
// in descending order — even where they contradict the static heuristic.
// The fabricated timings are largest at spec index 0 (an LRU scenario the
// heuristic ranks cheapest), so a heuristic feed would start elsewhere.
func TestMeasuredCostDispatchOrder(t *testing.T) {
	spec := fig9Spec(t, 6, 4)
	spec.NoBaseline = true
	n := spec.Size()
	store := openStore(t)
	fabricateTimings(t, store, spec, func(i int) time.Duration {
		return time.Duration(n-i) * time.Millisecond // descending in spec order
	})

	order := dispatchOrder(t, Executor{Workers: 1, Store: store}, spec)
	for step, idx := range order {
		if idx != step {
			t.Fatalf("dispatch step %d ran scenario %d; measured costs descend in spec order, so dispatch must too (full order %v)", step, idx, order)
		}
	}

	// Without the store the same grid must NOT dispatch in spec order:
	// the heuristic starts with the expensive contended LFD block at the
	// grid's end. This guards against the measured feed silently becoming
	// a no-op (the assertion above would then pass vacuously).
	heuristic := dispatchOrder(t, Executor{Workers: 1}, spec)
	if heuristic[0] == 0 {
		t.Fatalf("heuristic dispatch also starts at spec index 0 — the measured-order assertion proves nothing (order %v)", heuristic)
	}
}

// TestMeasuredCostSurvivesSchemaBump is the case the hint path exists
// for: after a schema bump every entry is unservable (the whole grid
// re-simulates) but the timings recorded at the same keys still drive
// dispatch. The re-simulation then overwrites the stale entries in place
// with fresh measurements.
func TestMeasuredCostSurvivesSchemaBump(t *testing.T) {
	spec := fig9Spec(t, 6, 4)
	spec.NoBaseline = true
	n := spec.Size()
	store := openStore(t)
	keys := fabricateTimings(t, store, spec, func(i int) time.Duration {
		return time.Duration(n-i) * time.Millisecond
	})
	storetest.StaleifySchema(t, store)
	// Fresh handle: the stats below must describe the post-bump sweep
	// alone, not the fabrication writes.
	store, err := resultstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}

	order := dispatchOrder(t, Executor{Workers: 1, Store: store}, spec)
	for step, idx := range order {
		if idx != step {
			t.Fatalf("dispatch step %d ran scenario %d; stale-schema timings must still order dispatch (full order %v)", step, idx, order)
		}
	}
	// Unservable entries mean every scenario really re-simulated and was
	// written back under the current schema, with a real measurement.
	hits, misses, puts := store.Stats()
	if hits != 0 || misses != int64(n) || puts != int64(n) {
		t.Fatalf("stale store stats hits=%d misses=%d puts=%d, want 0/%d/%d", hits, misses, puts, n, n)
	}
	for _, key := range keys {
		ent, ok := store.Get(key)
		if !ok {
			t.Fatalf("re-simulation did not overwrite the stale entry for %s", key[:12])
		}
		if ent.ElapsedNS <= 0 {
			t.Fatalf("rewritten entry for %s lost the measured timing", key[:12])
		}
	}
}

// TestMeasuredCostPartialHintsCalibrated covers the mixed grid under the
// cost model: a few scenarios measured, the rest predicted per policy
// family. The grid is fig9 at RUs {6, 4} — spec indices 0-3 are the R=6
// block (LRU, LocalLFD, LocalLFD+skip, LFD), 4-7 the R=4 block. Two
// stored measurements contradict the static heuristic as hard as
// possible: scenario 0 (LRU at R=6, the heuristic's cheapest) took an
// hour, scenario 1 (Local LFD at R=6, ranked above LRU) took a
// nanosecond.
//
// The model must generalize each measurement to its whole family — not
// just pin the measured point: the unmeasured LRU at R=4 (index 4)
// inherits hour-scale cost and dispatches ahead of every live-measured
// scenario, while the unmeasured Local LFD at R=4 (index 5) sinks with
// its family to the very end. Mid-run self-calibration fills in the
// families with no stored data from live completions (the LFD block's
// real wall times are milliseconds, dwarfed by the hour anchor), so the
// full dispatch order is deterministic under only the weak assumption
// that a real 60-app simulation takes between ~100ns and well under an
// hour.
func TestMeasuredCostPartialHintsCalibrated(t *testing.T) {
	spec := fig9Spec(t, 6, 4)
	spec.NoBaseline = true
	store := openStore(t)
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range map[int]time.Duration{0: time.Hour, 1: time.Nanosecond} {
		ent := &resultstore.Entry{
			ElapsedNS: int64(d),
			Run:       &resultstore.Run{Executed: 1, Graphs: 1},
		}
		if err := store.Put(keys[i], ent); err != nil {
			t.Fatal(err)
		}
	}

	order := dispatchOrder(t, Executor{Workers: 1, Store: store}, spec)
	// Initial ranking: the never-measured LFD and skip families sort by
	// the median-rescaled heuristic (the hour anchor makes them huge, the
	// skip family's R=4 largest); the LRU family line predicts 1.5h for
	// R=4; the Local LFD family sinks to nanoseconds. After the first live
	// completion the model learns real (millisecond) scales for the
	// unseen families, so the hour-calibrated LRU family overtakes them —
	// mid-run recalibration is what puts 4 and 0 in positions 1 and 2.
	// The relative order of the three remaining live scenarios (7, 2, 3)
	// depends on this machine's real wall-time ratios, so only their
	// position block is pinned; the nanosecond-family pair closes the run.
	if order[0] != 6 || order[1] != 4 || order[2] != 0 {
		t.Fatalf("calibrated dispatch order %v, want it to open 6 (median-scaled skip family), 4 (hour-family LRU R=4), 0 (hour-measured)", order)
	}
	mid := map[int]bool{order[3]: true, order[4]: true, order[5]: true}
	if !mid[7] || !mid[2] || !mid[3] {
		t.Fatalf("calibrated dispatch order %v, want the live block {7, 2, 3} in positions 3-5", order)
	}
	if order[6] != 5 || order[7] != 1 {
		t.Fatalf("calibrated dispatch order %v, want the nanosecond family last: 5 (predicted) then 1 (measured)", order)
	}
	heuristic := dispatchOrder(t, Executor{Workers: 1}, spec)
	if hLast := heuristic[len(heuristic)-1]; hLast == 1 {
		t.Fatalf("heuristic alone also dispatches scenario 1 last — the family-demotion assertion proves nothing (order %v)", heuristic)
	}
}

// orderCheckCollector asserts results arrive in strictly ascending spec
// order with the scenario's own index, no matter how dispatch reordered
// the grid.
type orderCheckCollector struct {
	t    *testing.T
	next int
	got  int
}

func (c *orderCheckCollector) Collect(r *Result) error {
	if r.Scenario.Index != c.next {
		c.t.Errorf("collected scenario %d, want %d (delivery reordered)", r.Scenario.Index, c.next)
	}
	c.next++
	c.got++
	return nil
}

// TestPartialHintsSubsetDispatchAndDelivery is the ElapsedHint fallback
// pin: a grid where only a strict subset of scenarios has stored timings
// must dispatch the measured ones first (descending measured time) and
// still deliver every result in spec order, on a concurrent pool. The
// two Local LFD scenarios at R=4 — the heaviest by the static heuristic —
// carry hour-scale fabricated measurements, so they outrank every model
// prediction derived from them (at most 4/3h, for Local LFD at R=6);
// everything else is live-simulated and streamed back in order.
func TestPartialHintsSubsetDispatchAndDelivery(t *testing.T) {
	spec := fig9Spec(t, 6, 4)
	spec.NoBaseline = true
	n := spec.Size()
	store := openStore(t)
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	// Spec indices 5 and 6 are Local LFD (1) without and with skip-events
	// at R=4.
	for i, d := range map[int]time.Duration{5: 2 * time.Hour, 6: 90 * time.Minute} {
		ent := &resultstore.Entry{
			ElapsedNS: int64(d),
			Run:       &resultstore.Run{Executed: 1, Graphs: 1},
		}
		if err := store.Put(keys[i], ent); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh handle: the stats below must describe the sweep alone, not
	// the fabrication writes.
	store, err = resultstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}

	var order []int
	ex := Executor{Workers: 2, Store: store}
	ex.observeDispatch = func(i int) { order = append(order, i) }
	c := &orderCheckCollector{t: t}
	if err := ex.Collect(spec, c); err != nil {
		t.Fatal(err)
	}
	if c.got != n {
		t.Fatalf("collected %d of %d results", c.got, n)
	}
	if len(order) < 2 || order[0] != 5 || order[1] != 6 {
		t.Fatalf("dispatch order %v, want the measured scenarios first: 5 (2h) then 6 (1.5h)", order)
	}
	// The measured pair was served from the store, the rest simulated and
	// written back — a partial store must never re-simulate what it has
	// nor skip persisting what it lacks.
	if hits, misses, puts := store.Stats(); hits != 2 || misses != int64(n-2) || puts != int64(n-2) {
		t.Fatalf("stats hits=%d misses=%d puts=%d, want 2/%d/%d", hits, misses, puts, n-2, n-2)
	}
}

// TestElapsedRecordedAndServed: a cold store-backed sweep records every
// scenario's measured wall time on its entry (ElapsedHint serves it), and
// a warm re-run — which simulates nothing — reports zero Elapsed on its
// results instead of replaying the stale measurement as its own.
func TestElapsedRecordedAndServed(t *testing.T) {
	spec := fig9Spec(t, 4)
	store := openStore(t)
	ex := Executor{Workers: 2, Store: store}

	cold, err := ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cold.Results {
		if r.Elapsed <= 0 {
			t.Errorf("cold scenario %s has no measured elapsed time", r.Scenario.Name())
		}
	}
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if hint, ok := store.ElapsedHint(key); !ok || hint <= 0 {
			t.Errorf("no elapsed hint recorded for %s", key[:12])
		}
	}

	warm, err := ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range warm.Results {
		if r.Elapsed != 0 {
			t.Errorf("store-served scenario %s claims a measured elapsed time of %v", r.Scenario.Name(), r.Elapsed)
		}
	}
}
