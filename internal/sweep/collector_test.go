package sweep

import (
	"fmt"
	"testing"

	"repro/internal/policy"
)

// TestCollectStreamsInSpecOrder: whatever the completion order on a wide
// pool, the collector sees one call per scenario, in spec order, and can
// rely on single-goroutine delivery (no locking in this collector).
func TestCollectStreamsInSpecOrder(t *testing.T) {
	spec := fig9Spec(t, 4, 5, 6)
	next := 0
	err := Executor{Workers: 8}.Collect(spec, CollectorFunc(func(r *Result) error {
		if r.Scenario.Index != next {
			t.Fatalf("collected scenario %d, want %d", r.Scenario.Index, next)
		}
		next++
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if next != spec.Size() {
		t.Fatalf("collected %d of %d scenarios", next, spec.Size())
	}
}

// TestCollectorErrorCancels: a collector error aborts the sweep with a
// pointed error and no further Collect calls.
func TestCollectorErrorCancels(t *testing.T) {
	spec := fig9Spec(t, 4, 5)
	boom := fmt.Errorf("disk full")
	calls := 0
	err := Executor{Workers: 4}.Collect(spec, CollectorFunc(func(r *Result) error {
		calls++
		if r.Scenario.Index == 2 {
			return boom
		}
		return nil
	}))
	if err == nil {
		t.Fatal("collector error swallowed")
	}
	want := fmt.Sprintf("sweep: collect scenario 2 (%s): disk full", mustScenarioName(t, spec, 2))
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if calls != 3 {
		t.Errorf("collector called %d times after failing on the third", calls)
	}
}

// TestCollectorErrorNotDisplacedByStraggler: when a collector error
// cancels the sweep, a scenario error straggling in from a worker that
// was already in flight must not displace it — the caller debugs the
// cancellation's actual cause.
func TestCollectorErrorNotDisplacedByStraggler(t *testing.T) {
	spec := fig9Spec(t, 4)
	release := make(chan struct{})
	spec.Policies = []PolicySpec{
		spec.Policies[0], // completes first; its collection fails the sweep
		{Name: "late-boom", Key: "late-boom", New: func() (policy.Policy, error) {
			<-release // errors only once the sweep is already cancelled
			return nil, fmt.Errorf("straggler failure")
		}},
		spec.Policies[3],
	}
	boom := fmt.Errorf("collector sink full")
	ex := Executor{Workers: 2}
	ex.onCancel = func() { close(release) }
	err := ex.Collect(spec, CollectorFunc(func(*Result) error { return boom }))
	if err == nil {
		t.Fatal("failing sweep succeeded")
	}
	want := fmt.Sprintf("sweep: collect scenario 0 (%s): collector sink full", mustScenarioName(t, spec, 0))
	if err.Error() != want {
		t.Errorf("error = %q, want the collector error %q", err, want)
	}
}

func mustScenarioName(t *testing.T, spec Spec, i int) string {
	t.Helper()
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return scenarios[i].Name()
}

// TestCollectBoundedReorderWindow pins the streaming memory guarantee:
// however large the grid, the executor never holds more dispatched-but-
// uncollected scenarios than the reorder window — O(workers), not
// O(grid). This is the memory-regression pin for streaming sweeps.
func TestCollectBoundedReorderWindow(t *testing.T) {
	rus := make([]int, 0, 17)
	for r := 4; r <= 20; r++ {
		rus = append(rus, r)
	}
	spec := fig9Spec(t, rus...) // 17 × 4 = 68 scenarios, well past the window
	const workers = 2
	window := reorderWindow(workers)
	if spec.Size() <= window {
		t.Fatalf("grid of %d does not exceed the window of %d — test proves nothing", spec.Size(), window)
	}
	maxPending := 0
	ex := Executor{Workers: workers}
	ex.observePending = func(n int) {
		if n > maxPending {
			maxPending = n
		}
	}
	collected := 0
	if err := ex.Collect(spec, CollectorFunc(func(*Result) error { collected++; return nil })); err != nil {
		t.Fatal(err)
	}
	if collected != spec.Size() {
		t.Fatalf("collected %d of %d", collected, spec.Size())
	}
	if maxPending == 0 {
		t.Fatal("observePending never fired")
	}
	if maxPending > window {
		t.Errorf("held %d uncollected scenarios, window is %d — memory is not O(workers)", maxPending, window)
	}
}

// TestRowRendererBlocks is the pure grouping pin: Sizes sequencing with
// last-size repeat, block indices, Close's ragged-grid error and the
// row count, driven by synthetic results (no simulator).
func TestRowRendererBlocks(t *testing.T) {
	feed := func(rr *RowRenderer, n int) error {
		for i := 0; i < n; i++ {
			if err := rr.Collect(&Result{Scenario: Scenario{Index: i}}); err != nil {
				return err
			}
		}
		return nil
	}

	var got [][]int
	rr := &RowRenderer{
		Sizes: []int{2, 3, 1},
		Emit: func(i int, rows []SummaryRow) error {
			if i != len(got) {
				t.Fatalf("block index %d, want %d", i, len(got))
			}
			idxs := make([]int, len(rows))
			for j, r := range rows {
				idxs[j] = r.Scenario.Index
			}
			got = append(got, idxs)
			return nil
		},
	}
	// 2 + 3 + 1 + 1 (the last size repeats) = 7 scenarios, 4 blocks.
	if err := feed(rr, 7); err != nil {
		t.Fatal(err)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2, 3, 4}, {5}, {6}}
	for i := range want {
		if len(got) <= i || len(got[i]) != len(want[i]) {
			t.Fatalf("blocks = %v, want shapes of %v", got, want)
		}
	}
	if rr.Rows() != 4 {
		t.Errorf("Rows() = %d, want 4", rr.Rows())
	}

	ragged := &RowRenderer{Sizes: []int{3}, Emit: func(int, []SummaryRow) error { return nil }}
	if err := feed(ragged, 4); err != nil {
		t.Fatal(err)
	}
	if err := ragged.Close(); err == nil {
		t.Error("Close accepted a stream that ended mid-row")
	}

	emitErr := &RowRenderer{Emit: func(int, []SummaryRow) error { return fmt.Errorf("sink full") }}
	if err := emitErr.Collect(&Result{}); err == nil {
		t.Error("Emit error swallowed")
	}

	bad := &RowRenderer{Sizes: []int{0}, Emit: func(int, []SummaryRow) error { return nil }}
	if err := bad.Collect(&Result{}); err == nil {
		t.Error("non-positive block size accepted")
	}
}

// TestRowRendererBoundedRetention is the renderer half of the streaming
// memory gate: on a grid far larger than one report row, a RowRenderer
// buffers less than one block between Collect calls — O(1) rows, never
// O(grid) — while emitting rows whose contents match the O(grid)
// ResultSet of Run exactly.
func TestRowRendererBoundedRetention(t *testing.T) {
	rus := make([]int, 0, 17)
	for r := 4; r <= 20; r++ {
		rus = append(rus, r)
	}
	spec := fig9Spec(t, rus...) // 17 × 4 = 68 scenarios
	group := len(spec.Policies)

	var rows []SummaryRow
	rr := &RowRenderer{
		Sizes: []int{group},
		Emit: func(i int, block []SummaryRow) error {
			rows = append(rows, append([]SummaryRow(nil), block...)...)
			return nil
		},
	}
	held := 0
	err := (Executor{Workers: 4}).Collect(spec, CollectorFunc(func(r *Result) error {
		err := rr.Collect(r)
		held = max(held, len(rr.block))
		return err
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	if rr.Rows() != spec.Size()/group {
		t.Errorf("emitted %d rows, grid has %d", rr.Rows(), spec.Size()/group)
	}
	if held != group-1 {
		t.Errorf("renderer held %d rows between calls at peak, want %d, one short of a block — retention is not O(1) rows", held, group-1)
	}
	rs, err := Executor{Workers: 4}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := condenseAll(rs.Results); !sameRows(rows, want) {
		t.Errorf("renderer rows diverged from Run's:\n got %+v\nwant %+v", rows, want)
	}
}

// TestDispatchFollowsSpecOrder pins the dispatch order where a one-core
// host's wall clock cannot: even on a descending-RU grid, whose costliest
// scenarios (the R=4 block) come last, a four-worker pool hands the
// scenarios out in exact spec order.
func TestDispatchFollowsSpecOrder(t *testing.T) {
	spec := fig9Spec(t, 10, 8, 6, 4) // descending: the expensive R=4 block last
	var order []int
	ex := Executor{Workers: 4}
	ex.observeDispatch = func(i int) { order = append(order, i) }
	if err := ex.Collect(spec, Discard); err != nil {
		t.Fatal(err)
	}
	if len(order) != spec.Size() {
		t.Fatalf("dispatched %d of %d scenarios", len(order), spec.Size())
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("dispatched scenario %d at step %d, want spec order", got, i)
		}
	}
}
