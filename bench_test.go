// Benchmarks regenerating the paper's measured results, one group per
// table or figure. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute times are host-dependent (the paper measured a PowerPC 405 at
// 100 MHz); the meaningful comparisons are the ratios between policies
// and between the design-time and run-time phases. See EXPERIMENTS.md.
package taskreuse_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dynlist"
	"repro/internal/experiments"
	"repro/internal/manager"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// --- Fig. 2 / Fig. 3: motivational schedules ------------------------------

// BenchmarkFig2 times the three motivational-example simulations
// (scheduling cost of the whole pipeline, not a paper table per se).
func BenchmarkFig2(b *testing.B) {
	for _, spec := range []string{"lru", "lfd", "locallfd:1"} {
		pol, err := policy.Parse(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(pol.Name(), func(b *testing.B) {
			cfg := manager.Config{RUs: 4, Latency: workload.PaperLatency(), Policy: pol}
			seq := workload.Fig2Sequence()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := manager.Run(cfg, dynlist.NewSequence(seq...)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3SkipEvents times the skip-events run of Fig. 3b including
// the design-time mobility phase amortized over executions.
func BenchmarkFig3SkipEvents(b *testing.B) {
	seq := workload.Fig3Sequence()
	lookup, _, err := mobility.ComputeAll(seq, 4, workload.PaperLatency())
	if err != nil {
		b.Fatal(err)
	}
	pol, err := policy.NewLocalLFD(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := manager.Config{
		RUs: 4, Latency: workload.PaperLatency(), Policy: pol,
		SkipEvents: true, Mobility: lookup,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := manager.Run(cfg, dynlist.NewSequence(seq...))
		if err != nil {
			b.Fatal(err)
		}
		if res.Makespan != simtime.FromMs(70) {
			b.Fatalf("makespan drifted: %v", res.Makespan)
		}
	}
}

// --- Fig. 9: the 500-application evaluation --------------------------------

// fig9Workload builds the paper's 500-application sequence once.
func fig9Workload(b *testing.B) (pool, seq []*taskgraph.Graph) {
	b.Helper()
	opt := experiments.DefaultOptions()
	pool = workload.Multimedia()
	feed, err := dynlist.RandomSequence(pool, opt.Apps, rand.New(rand.NewSource(opt.Seed)))
	if err != nil {
		b.Fatal(err)
	}
	items := feed.Remaining()
	seq = make([]*taskgraph.Graph, len(items))
	for i, it := range items {
		seq[i] = it.Graph
	}
	return pool, seq
}

// BenchmarkFig9Run times one full 500-application simulation per policy at
// the paper's most contended point (R=4) — the cost of regenerating one
// data point of Fig. 9.
func BenchmarkFig9Run(b *testing.B) {
	pool, seq := fig9Workload(b)
	lookup, _, err := mobility.ComputeAll(pool, 4, workload.PaperLatency())
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		pol  policy.Policy
		skip bool
	}{
		{"LRU", policy.NewLRU(), false},
		{"LocalLFD1", mustLocal(b, 1), false},
		{"LocalLFD4", mustLocal(b, 4), false},
		{"LocalLFD1+Skip", mustLocal(b, 1), true},
		{"LFD", policy.NewLFD(), false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := manager.Config{
				RUs: 4, Latency: workload.PaperLatency(), Policy: c.pol, SkipEvents: c.skip,
			}
			if c.skip {
				cfg.Mobility = lookup
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := manager.Run(cfg, dynlist.NewSequence(seq...)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 9 sweep: sequential vs parallel executor --------------------------

// fig9SweepSpec is the Fig. 9b grid (four policy series across the unit
// sweep) as a declarative sweep Spec.
func fig9SweepSpec(b *testing.B, pool, seq []*taskgraph.Graph) sweep.Spec {
	b.Helper()
	return sweep.Spec{
		Workloads: []sweep.Workload{{Pool: pool, Seq: seq}},
		RUs:       experiments.DefaultOptions().RUs,
		Latencies: []simtime.Time{workload.PaperLatency()},
		Policies: []sweep.PolicySpec{
			sweep.Fixed("LRU", policy.NewLRU()),
			sweep.LocalLFD(1, false),
			sweep.LocalLFD(1, true),
			sweep.Fixed("LFD", policy.NewLFD()),
		},
	}
}

// BenchmarkFig9Sweep measures regenerating the whole Fig. 9b grid —
// 4 policy series × 7 unit counts — sequentially (Workers=1) and on the
// parallel executor (one worker per CPU). The design-time mobility cache
// is warmed first so both variants measure pure simulation throughput;
// on an N-core host the parallel variant should approach N× (the
// acceptance bar is ≥2× on ≥4 cores). The result-collection order is
// byte-identical either way — see TestParallelReportsByteIdentical.
func BenchmarkFig9Sweep(b *testing.B) {
	pool, seq := fig9Workload(b)
	spec := fig9SweepSpec(b, pool, seq)
	// Warm the shared design-time cache so the measurement isolates the
	// executor (the first Run would otherwise pay the one-off mobility
	// computation and skew the smaller b.N runs).
	if _, err := (sweep.Executor{}).Run(spec); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"Sequential", 1},
		{"Parallel", 0}, // one worker per CPU
	} {
		b.Run(bc.name, func(b *testing.B) {
			ex := sweep.Executor{Workers: bc.workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := ex.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(rs.Results) != spec.Size() {
					b.Fatalf("%d results for %d scenarios", len(rs.Results), spec.Size())
				}
			}
		})
	}
}

// BenchmarkFig9SweepColdCache includes the design-time phase: each
// iteration flushes the process-wide mobility cache, so the measurement
// covers what a fresh process pays for the full grid. The parallel
// variant overlaps the mobility computations across unit counts too.
func BenchmarkFig9SweepColdCache(b *testing.B) {
	pool, seq := fig9Workload(b)
	spec := fig9SweepSpec(b, pool, seq)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"Sequential", 1},
		{"Parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ex := sweep.Executor{Workers: bc.workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mobility.FlushCache()
				if _, err := ex.Run(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9SweepWarmStore measures serving the whole Fig. 9b grid
// from a populated result store: the cost of a re-run that re-simulates
// nothing (hash the workload once, 28 disk lookups, decode). Compare
// against BenchmarkFig9Sweep/Parallel — the gap is what the store saves
// on every overlapping re-run.
func BenchmarkFig9SweepWarmStore(b *testing.B) {
	pool, seq := fig9Workload(b)
	spec := fig9SweepSpec(b, pool, seq)
	store, err := resultstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ex := sweep.Executor{Store: store}
	// Cold run populates the store (and warms the mobility cache).
	if _, err := ex.Run(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := ex.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Results) != spec.Size() {
			b.Fatalf("%d results for %d scenarios", len(rs.Results), spec.Size())
		}
	}
	b.StopTimer()
	if _, misses, _ := store.Stats(); misses != int64(spec.Size()) {
		b.Fatalf("warm iterations missed the store (%d misses beyond the cold run's %d)",
			misses-int64(spec.Size()), spec.Size())
	}
}

// --- Design-time artifact cache: cold compute vs warm load -----------------

// artifactBenchGrid is the design-time work a Fig. 9-style sweep needs:
// every multimedia template at several unit counts.
func artifactBenchGrid() (pool []*taskgraph.Graph, rus []int) {
	return workload.Multimedia(), []int{4, 5, 6}
}

// BenchmarkFig9ArtifactCold measures the design-time phase a fresh
// process pays with no artifact store: every mobility table computed
// from scratch. The ns/table metric is the cold baseline for
// BenchmarkFig9ArtifactWarm.
func BenchmarkFig9ArtifactCold(b *testing.B) {
	pool, rus := artifactBenchGrid()
	prev := mobility.SetStore(nil)
	defer mobility.SetStore(prev)
	defer mobility.FlushCache()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mobility.FlushCache()
		for _, u := range rus {
			if _, _, err := mobility.CachedAll(pool, u, workload.PaperLatency()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rus)*len(pool)), "ns/table")
}

// BenchmarkFig9ArtifactWarm measures the same design-time phase served
// from a pre-seeded artifact store — what the second process of a
// cross-scenario (or cross-host) sweep pays instead of recomputing.
// Every iteration flushes the in-process map, so the timed work is
// store probe + decode + validate per table; the benchmark fails if any
// table was recomputed. CI's bench-regression job trend-gates the
// ns/table metric next to the hot loop's ns/event.
func BenchmarkFig9ArtifactWarm(b *testing.B) {
	pool, rus := artifactBenchGrid()
	store, err := resultstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	restore := artifact.Install(store)
	defer restore()
	defer mobility.FlushCache()
	// Seed: one cold pass computes and persists every table.
	mobility.FlushCache()
	for _, u := range rus {
		if _, _, err := mobility.CachedAll(pool, u, workload.PaperLatency()); err != nil {
			b.Fatal(err)
		}
	}
	mobility.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mobility.FlushCache()
		for _, u := range rus {
			if _, _, err := mobility.CachedAll(pool, u, workload.PaperLatency()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if st := mobility.Stats(); st.Computes != 0 {
		b.Fatalf("warm iterations recomputed %d tables; the artifact tier should have served them", st.Computes)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rus)*len(pool)), "ns/table")
}

// benchSink keeps a benchmark's output conservatively live so the
// retained-memory measurements below can't be optimized away.
var benchSink any

// BenchmarkFig9SweepSummary contrasts what a completed sweep pins in
// memory: a full ResultSet (every raw run and ideal baseline, O(grid)
// completion-time slices) versus the streaming SummaryCollector rows
// (scalar counters only). The retained-B/scn metric is measured
// directly — heap in use holding the output minus heap after dropping
// it, per scenario — and must stay flat for the summary stream as the
// grid grows from 3 to 7 unit counts, while the ResultSet's grows with
// the workload. This is the memory story behind sharded, store-merged
// grids: no process ever needs the whole grid resident.
func BenchmarkFig9SweepSummary(b *testing.B) {
	pool, seq := fig9Workload(b)
	for _, grid := range []struct {
		name string
		rus  []int
	}{
		{"R4-6", []int{4, 5, 6}},
		{"R4-10", []int{4, 5, 6, 7, 8, 9, 10}},
	} {
		spec := fig9SweepSpec(b, pool, seq)
		spec.RUs = grid.rus
		if _, err := (sweep.Executor{}).Run(spec); err != nil {
			b.Fatal(err) // warm the mobility cache
		}
		measureRetained := func(b *testing.B, run func() any) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = run()
			}
			b.StopTimer()
			var with, without runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&with)
			benchSink = nil
			runtime.GC()
			runtime.ReadMemStats(&without)
			retained := int64(with.HeapAlloc) - int64(without.HeapAlloc)
			if retained < 0 {
				retained = 0
			}
			b.ReportMetric(float64(retained)/float64(spec.Size()), "retained-B/scn")
		}
		ex := sweep.Executor{}
		b.Run("ResultSet/"+grid.name, func(b *testing.B) {
			measureRetained(b, func() any {
				rs, err := ex.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				return rs
			})
		})
		b.Run("SummaryStream/"+grid.name, func(b *testing.B) {
			measureRetained(b, func() any {
				ss, err := ex.RunSummaries(spec)
				if err != nil {
					b.Fatal(err)
				}
				return ss
			})
		})
	}
}

// --- Table I: worst-case replacement decision ------------------------------

// BenchmarkTableI regenerates Table I: the worst-case run-time delay of a
// single replacement decision (victim absent from the whole lookahead,
// four candidates to scan).
func BenchmarkTableI(b *testing.B) {
	_, seq := fig9Workload(b)
	full := experiments.FullFutureLookahead(seq)
	cases := []struct {
		name string
		pol  policy.Policy
		look []taskgraph.TaskID
	}{
		{"LRU", policy.NewLRU(), nil},
		{"LFD", policy.NewLFD(), full},
		{"LocalLFD1", mustLocal(b, 1), experiments.WindowLookahead(1)},
		{"LocalLFD2", mustLocal(b, 2), experiments.WindowLookahead(2)},
		{"LocalLFD4", mustLocal(b, 4), experiments.WindowLookahead(4)},
	}
	for _, c := range cases {
		// Two worst cases: the paper's literal one (victim absent — our
		// implementation short-circuits on the first never-reused
		// candidate) and the cost-equivalent late-hit one (all four
		// candidates force full scans, the cost the paper measured).
		absent := experiments.NewWorstCase(c.look)
		lateHit := experiments.NewLateHitCase(c.look)
		b.Run(c.name+"/absent", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec := c.pol.SelectVictim(absent.Request, absent.Candidates)
				if dec.Reusable {
					b.Fatal("worst case must not find the victim")
				}
			}
		})
		b.Run(c.name+"/latehit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.pol.SelectVictim(lateHit.Request, lateHit.Candidates)
			}
		})
	}
}

// --- Table II: module impact per benchmark ---------------------------------

// BenchmarkTableIIManager approximates Table II column 3: the run-time
// cost of driving one application instance through the execution manager.
func BenchmarkTableIIManager(b *testing.B) {
	for _, g := range workload.Multimedia() {
		b.Run(g.Name(), func(b *testing.B) {
			cfg := manager.Config{RUs: 4, Latency: workload.PaperLatency(), Policy: policy.NewLRU()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := manager.Run(cfg, dynlist.NewSequence(g)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIIDesignTime regenerates Table II column 6: the
// design-time mobility calculation per benchmark.
func BenchmarkTableIIDesignTime(b *testing.B) {
	for _, g := range workload.Multimedia() {
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mobility.Compute(g, 4, workload.PaperLatency()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Abstract's 10× claim ---------------------------------------------------

// BenchmarkHybridVsPureRuntime contrasts the per-application run-time cost
// of the hybrid technique (replacement decisions only) with an equivalent
// purely run-time technique (which recomputes mobilities on every
// arrival). The paper reports a ~10× reduction.
func BenchmarkHybridVsPureRuntime(b *testing.B) {
	g := workload.Hough()
	pol := mustLocal(b, 1)
	look := experiments.WindowLookahead(1)
	wc := experiments.NewWorstCase(look)
	decisions := g.NumTasks()

	b.Run("hybrid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for d := 0; d < decisions; d++ {
				pol.SelectVictim(wc.Request, wc.Candidates)
			}
		}
	})
	b.Run("pure-runtime", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mobility.Compute(g, 4, workload.PaperLatency()); err != nil {
				b.Fatal(err)
			}
			for d := 0; d < decisions; d++ {
				pol.SelectVictim(wc.Request, wc.Candidates)
			}
		}
	})
}

// --- helpers ---------------------------------------------------------------

func mustLocal(b *testing.B, w int) policy.Policy {
	b.Helper()
	p, err := policy.NewLocalLFD(w)
	if err != nil {
		b.Fatal(err)
	}
	return p
}
