package sweep

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/storetest"
	"repro/internal/workload"
)

// rowSpec is a small Fig. 9 grid over a sequence of apps applications.
func rowSpec(t testing.TB, apps int, rus ...int) Spec {
	t.Helper()
	pool := workload.Multimedia()
	seq, err := dynlist.RandomSequence(pool, apps, rand.New(rand.NewSource(2011)))
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Workloads: []Workload{{Label: "seed 2011", Pool: pool, Seq: seq}},
		RUs:       rus,
		Latencies: []simtime.Time{workload.PaperLatency()},
		Policies:  []PolicySpec{Fixed("LRU", policy.NewLRU()), LocalLFD(1, true)},
	}
}

// sameRows reports whether two condensed sweeps agree row for row.
func sameRows(a, b []SummaryRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Scenario.Name() != b[i].Scenario.Name() || a[i].Counters != b[i].Counters ||
			!reflect.DeepEqual(a[i].Summary, b[i].Summary) {
			return false
		}
	}
	return true
}

// condenseAll condenses a sweep's results, in order.
func condenseAll(results []*Result) []SummaryRow {
	rows := make([]SummaryRow, len(results))
	for i, r := range results {
		rows[i] = condense(r)
	}
	return rows
}

// loadedBytes is a Backend that counts the bytes its Loads return.
type loadedBytes struct {
	resultstore.Backend
	n atomic.Int64
}

func (b *loadedBytes) Load(key string) ([]byte, bool) {
	data, ok := b.Backend.Load(key)
	b.n.Add(int64(len(data)))
	return data, ok
}

// rowCost is what a warm sweep spends per served row.
type rowCost struct {
	allocs, bytes, loaded float64
}

// servedRowCost measures one more served row of a warm sweep: the
// difference between sweeping spec and sweeping its first RU only,
// divided by the rows between them, so that what a sweep pays once (its
// keys, its collector) cancels. The GC is off while it measures, so no
// collection empties a pool midway and adds allocations of its own, and
// each side keeps the least of three measurements: other goroutines (an
// in-process http server) only ever add to a count. Under the race
// detector sync.Pool drops a quarter of what net/http puts back, so an
// http: request allocates a few times more or less at random; 40 sweeps
// (160 rows between the two sides) keep that jitter to about a third of
// an allocation per row, where 10 let it reach the slack of 3.
func servedRowCost(t *testing.T, store *resultstore.Store, spec Spec, collector func() Collector) rowCost {
	t.Helper()
	lb := &loadedBytes{Backend: store.Backend()}
	ex := Executor{Workers: 1, Store: resultstore.FromBackend(lb), RequireStored: true}
	const sweeps = 40
	measure := func(sp Spec) (allocs, bytes, loaded float64) {
		allocs, bytes = math.Inf(1), math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			lb.n.Store(0)
			runtime.ReadMemStats(&before)
			for range sweeps {
				if err := ex.Collect(sp, collector()); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
			loaded = float64(lb.n.Load())
		}
		return allocs, bytes, loaded
	}
	first := spec
	first.RUs = spec.RUs[:1]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	ma, ba, la := measure(spec)
	mb, bb, lbb := measure(first)
	rows := float64(sweeps * (spec.Size() - first.Size()))
	return rowCost{allocs: (ma - mb) / rows, bytes: (ba - bb) / rows, loaded: (la - lbb) / rows}
}

// TestWarmRowPathServesCondensedRows is the row-path pin, on every
// backend. A warm sweep through a condensing collector — RowRenderer or
// Discard — is served from each entry's counters and stored summary
// alone:
//
//   - it computes no ideal baseline;
//   - a served row allocates no more often at 2000 applications than at
//     200, and its extra bytes at 2000 are at most three times the extra
//     bytes loaded (the backend's read of the entry and the allocator's
//     rounding up of it) plus the http server's jitter. Holding the
//     times would add 8 bytes per application, and the ideal baselines
//     more on top;
//   - it delivers the cold sweep's rows.
//
// Any other collector is served the same way: a CollectorFunc receives
// counters and summary, with no completion times and no baseline.
func TestWarmRowPathServesCondensedRows(t *testing.T) {
	sizes := []int{200, 2000}
	specs := make(map[int]Spec)
	for _, apps := range sizes {
		specs[apps] = rowSpec(t, apps, 4, 5, 6)
	}
	type condensing struct {
		name string
		// collector returns a fresh collector and a function that reads
		// back the rows it delivered (nil for Discard, which keeps none).
		collector func() (Collector, func() []SummaryRow)
	}
	collectors := []condensing{
		{"RowRenderer", func() (Collector, func() []SummaryRow) {
			var rows []SummaryRow
			rr := &RowRenderer{Sizes: []int{2}, Emit: func(_ int, block []SummaryRow) error {
				rows = append(rows, block...)
				return nil
			}}
			return rr, func() []SummaryRow { return rows }
		}},
		{"Discard", func() (Collector, func() []SummaryRow) { return Discard, nil }},
	}

	for _, bk := range storetest.Backends() {
		t.Run(bk.Name, func(t *testing.T) {
			store, reopen := bk.Open(t)
			cold := make(map[int][]SummaryRow)
			for _, apps := range sizes {
				rs, err := (Executor{Workers: 2, Store: store}).Run(specs[apps])
				if err != nil {
					t.Fatal(err)
				}
				cold[apps] = condenseAll(rs.Results)
			}

			for _, cc := range collectors {
				t.Run(cc.name, func(t *testing.T) {
					cost := make(map[int]rowCost)
					for _, apps := range sizes {
						spec := specs[apps]
						warm := reopen(t)
						var ideals atomic.Int64
						ex := Executor{Workers: 2, Store: warm, RequireStored: true}
						ex.observeIdeal = func() { ideals.Add(1) }
						c, rows := cc.collector()
						if err := ex.Collect(spec, c); err != nil {
							t.Fatal(err)
						}
						if n := ideals.Load(); n != 0 {
							t.Errorf("%d apps: the warm sweep computed %d ideal baselines, want none", apps, n)
						}
						if rows != nil && !sameRows(rows(), cold[apps]) {
							t.Errorf("%d apps: warm rows differ from the cold sweep's:\n got %+v\nwant %+v", apps, rows(), cold[apps])
						}
						if hits, misses, _ := warm.Stats(); hits != int64(spec.Size()) || misses != 0 {
							t.Errorf("%d apps: %d hits, %d misses; want %d hits", apps, hits, misses, spec.Size())
						}
						cost[apps] = servedRowCost(t, warm, spec, func() Collector { c, _ := cc.collector(); return c })
					}
					small, large := cost[sizes[0]], cost[sizes[1]]
					// The slack is the jitter of the in-process http server,
					// whose goroutines allocate as they happen to be
					// scheduled; an allocation per application would add 1800.
					if large.allocs > small.allocs+3 {
						t.Errorf("a served row allocates %.2f times at %d apps but %.2f at %d",
							large.allocs, sizes[1], small.allocs, sizes[0])
					}
					// An entry grows by a few bytes from 200 to 2000
					// applications, so the byte bound carries the same
					// server's jitter too: tens of bytes per row, against
					// the 14,400 that 8 bytes per application would add.
					const byteJitter = 1024
					if grown, bound := large.bytes-small.bytes, 3*(large.loaded-small.loaded)+byteJitter; grown > bound {
						t.Errorf("a served row allocates %.0f bytes more at %d apps than at %d, over three times the %.0f more it loads plus %d",
							grown, sizes[1], sizes[0], large.loaded-small.loaded, byteJitter)
					}
				})
			}

			t.Run("full collector", func(t *testing.T) {
				var ideals atomic.Int64
				ex := Executor{Workers: 1, Store: reopen(t), RequireStored: true}
				ex.observeIdeal = func() { ideals.Add(1) }
				spec := specs[sizes[0]]
				err := ex.Collect(spec, CollectorFunc(func(r *Result) error {
					if r.Ideal != nil || r.Run.Completions != nil || r.Summary == nil {
						t.Errorf("%s: served with a baseline or completions, or without its summary", r.Scenario.Name())
					}
					return nil
				}))
				if err != nil {
					t.Fatal(err)
				}
				if n := ideals.Load(); n != 0 {
					t.Errorf("computed %d ideal baselines, want none", n)
				}
			})
		})
	}
}
