// Command rtrsim simulates a reconfigurable multitasking system executing
// a workload under a chosen replacement policy and reports the paper's
// metrics (reuse rate, reconfiguration overhead, remaining-overhead
// percentage), optionally with a schedule view.
//
//	rtrsim -workload fig2 -policy lfd -gantt
//	rtrsim -workload multimedia -apps 200 -policy locallfd:2 -skip -rus 4
//	rtrsim -workload fig3 -policy locallfd:1 -skip -gantt
//
// Passing several policies and/or several unit counts turns the run into
// a sweep executed on the parallel scenario executor (one worker per CPU
// unless -parallel says otherwise), reported as a comparison table:
//
//	rtrsim -policy lru,locallfd:1,lfd -rus 4-10 -parallel 8
//
// With -store DIR (or RTR_STORE set), scenario results are persisted
// keyed by canonical config hash and re-runs with overlapping grids are
// served from disk; the hit/miss digest goes to stderr so reports stay
// byte-identical. -store-gc reclaims entries written under an older
// schema version; -no-store disables the store even when RTR_STORE is
// set. Trace-producing runs (-gantt/-svg/-trace) bypass the store.
//
// A grid too large for one machine splits across hosts sharing a store.
// With -coord every host runs the same command and a self-healing pool
// leases the shards; the merge can run anywhere, even first, with
// -watch:
//
//	every host:  rtrsim -policy lru,lfd -rus 4-10 -store /shared -coord /shared/coord -coord-shards 8
//	any host:    rtrsim -policy lru,lfd -rus 4-10 -store /shared -coord /shared/coord -merge-report -watch
//
// Both locators also take an rtrserved campaign URL
// (http://host:8080/c/ID; -auth-token/-http-timeout tune the wire
// client), so the same pool can span hosts with no shared filesystem.
//
// Workers claim shards, heartbeat while populating the store, and
// re-lease any shard whose worker stops heartbeating for -lease-ttl
// (idempotent: the store dedupes by config hash). -coord-workers runs
// several claim loops in one process; -coord-status prints the pool
// state. The watch merge prints each table row the moment its scenario
// is stored, reports per-shard progress on stderr, blocks until the
// pool drains, and errors — using the same lease TTL — if the pool's
// workers die; without -watch, -merge-report next to -coord refuses a
// pool that has not drained. Manual -shard i/N remains for fixed
// matrices: it simulates only the scenarios whose spec index ≡ i (mod N)
// into the store and prints no table (the per-shard digest — scenarios
// ran, skipped by other shards, store hits/misses — goes to stderr);
// -merge-report renders the full comparison table purely from the store,
// failing on any scenario a shard never populated.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/profiling"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

func main() {
	var (
		wl       = flag.String("workload", "multimedia", "workload: fig2, fig3, or multimedia")
		apps     = flag.Int("apps", 500, "sequence length for the multimedia workload")
		seed     = flag.Int64("seed", 2011, "sequence seed for the multimedia workload")
		pol      = flag.String("policy", "locallfd:1", "replacement policy (lru, mru, fifo, random[:seed], lfd, locallfd:<w>); a comma list sweeps them")
		rus      = flag.String("rus", "4", "number of reconfigurable units; a range (\"4-10\") or list (\"4,6\") sweeps them")
		latency  = flag.Float64("latency", 4, "reconfiguration latency in ms")
		skip     = flag.Bool("skip", false, "enable skip events (hybrid design-time/run-time technique)")
		prefetch = flag.Bool("prefetch", false, "enable the cross-graph prefetch extension")
		gantt    = flag.Bool("gantt", false, "print the schedule as an ASCII Gantt chart (single run only)")
		tick     = flag.Float64("tick", 0, "Gantt: ms per column (0 = auto)")
		svgOut   = flag.String("svg", "", "write the schedule as SVG to this file (single run only)")
		traceOut = flag.String("trace", "", "write the execution trace as JSON to this file (single run only)")

		cf = cliflags.Register(flag.CommandLine)

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of this run to the file (inspect with go tool pprof; see EXPERIMENTS.md)")
		memProfile = flag.String("memprofile", "", "write a heap profile (live memory after GC) to the file at exit")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "rtrsim:", err)
		}
	}()

	setup, err := cf.Resolve()
	if err != nil {
		fatal(err)
	}
	store := setup.Store
	// Design-time artifact tier: with a store attached, mobility tables
	// persist next to the results and warm runs load them instead of
	// recomputing. Counters start from zero for this run's digest.
	mobility.ResetStats()
	if store != nil {
		artifact.Install(store)
	}
	if setup.StoreGC {
		line, err := resultstore.RunGC(store)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
		return
	}
	if setup.CoordStatus {
		report, err := setup.StatusReport()
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
		return
	}

	units, err := sweep.ParseRUs(*rus)
	if err != nil {
		fatal(err)
	}
	policies, err := sweep.ParsePolicies(*pol, *skip)
	if err != nil {
		fatal(err)
	}
	seq, err := campaign.BuildWorkload(*wl, *apps, *seed)
	if err != nil {
		fatal(err)
	}
	sharded := setup.HasShard || setup.Merge || setup.Coord != nil

	if len(units) == 1 && len(policies) == 1 && !sharded {
		runSingle(*wl, seq, singleOptions{
			spec: policies[0], rus: units[0], latency: simtime.FromMs(*latency),
			skip: *skip, prefetch: *prefetch, retries: setup.Retries,
			gantt: *gantt, tick: *tick, svgOut: *svgOut, traceOut: *traceOut,
		}, store)
	} else {
		if *gantt || *svgOut != "" || *traceOut != "" {
			if sharded {
				fatal(fmt.Errorf("-gantt/-svg/-trace need a single live scenario, not a sharded sweep"))
			}
			fatal(fmt.Errorf("-gantt/-svg/-trace need a single scenario; got %d policies × %d unit counts",
				len(policies), len(units)))
		}
		runSweep(*wl, seq, sweepOptions{
			units: units, policies: policies, latency: simtime.FromMs(*latency),
			prefetch: *prefetch,
		}, setup)
	}
	if store != nil {
		fmt.Fprintln(os.Stderr, store.SummaryLine())
	}
	if line := mobility.DigestLine(); line != "" {
		fmt.Fprintln(os.Stderr, line)
	}
}

type singleOptions struct {
	spec           sweep.PolicySpec
	rus            int
	latency        simtime.Time
	skip, prefetch bool
	retries        int
	gantt          bool
	tick           float64
	svgOut         string
	traceOut       string
}

// runSingle is the classic one-scenario path with the full metric report
// and the optional schedule views. With a store attached (and no schedule
// view requested, since traces are not serialized) the scenario runs
// through the store-backed sweep executor instead, so repeated single
// runs are served from disk too.
func runSingle(wl string, seq []*taskgraph.Graph, o singleOptions, store *resultstore.Store) {
	needTrace := o.gantt || o.svgOut != "" || o.traceOut != ""
	var res *core.Result
	if store != nil && !needTrace {
		ps := o.spec
		ps.CrossGraphPrefetch = o.prefetch
		rs, err := sweep.Executor{Store: store, MaxScenarioRetries: o.retries}.Run(sweep.Spec{
			Workloads: []sweep.Workload{{Seq: seq}},
			RUs:       []int{o.rus},
			Latencies: []simtime.Time{o.latency},
			Policies:  []sweep.PolicySpec{ps},
		})
		if err != nil {
			fatal(err)
		}
		r := rs.Results[0]
		res = &core.Result{Run: r.Run, Ideal: r.Ideal, Summary: r.Summary}
	} else {
		pol, err := o.spec.New()
		if err != nil {
			fatal(err)
		}
		r, err := core.Evaluate(core.Config{
			RUs:                o.rus,
			Latency:            o.latency,
			Policy:             pol,
			SkipEvents:         o.skip,
			CrossGraphPrefetch: o.prefetch,
			RecordTrace:        needTrace,
		}, seq...)
		if err != nil {
			fatal(err)
		}
		res = r
	}

	s := res.Summary
	fmt.Printf("workload        %s (%d applications, %d task executions)\n", wl, len(seq), s.Executed)
	fmt.Printf("system          %d RUs, latency %v\n", s.RUs, s.Latency)
	// The spec's display name already carries the skip suffix, and both
	// execution paths (core and store-backed sweep) report the same run,
	// so the label is path-independent.
	fmt.Printf("policy          %s\n", o.spec.Name)
	fmt.Printf("reuse           %d/%d = %.2f%%\n", s.Reused, s.Executed, s.ReuseRate())
	fmt.Printf("makespan        %v (ideal %v)\n", s.Makespan, s.IdealMakespan)
	fmt.Printf("overhead        %v (%.2f%% of the original %v)\n",
		s.Overhead(), s.RemainingOverheadPct(), s.OriginalOverhead())
	fmt.Printf("loads           %d (skips taken: %d, preloads: %d)\n",
		s.Loads, res.Run.Skips, res.Run.Preloads)
	if d, err := metrics.Delays(res.Run, res.Ideal); err == nil && d.Count > 0 {
		fmt.Printf("per-app delay   mean %v, p50 %v, p95 %v, max %v\n", d.Mean, d.P50, d.P95, d.Max)
	}
	if o.gantt {
		fmt.Println()
		fmt.Print(res.Run.Trace.Gantt(trace.GanttOptions{TickMs: o.tick}))
	}
	if o.svgOut != "" {
		if err := os.WriteFile(o.svgOut, []byte(res.Run.Trace.SVG()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("schedule SVG    %s\n", o.svgOut)
	}
	if o.traceOut != "" {
		data, err := json.MarshalIndent(res.Run.Trace, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(o.traceOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("trace JSON      %s\n", o.traceOut)
	}
}

type sweepOptions struct {
	units    []int
	policies []sweep.PolicySpec
	latency  simtime.Time
	prefetch bool
}

// runSweep executes the policies × unit-counts grid on the streaming
// executor and prints one comparison row per scenario, in spec order,
// the moment the scenario lands — the sweep holds O(workers) raw runs
// and the renderer O(1) rows however many scenarios the flags expand to.
// In a watch-mode merge the rows appear as the coordinator pool stores
// their scenarios.
func runSweep(wl string, seq []*taskgraph.Graph, o sweepOptions, setup campaign.Setup) {
	store := setup.Store
	if o.prefetch {
		for i := range o.policies {
			o.policies[i].CrossGraphPrefetch = true
		}
	}
	spec := sweep.Spec{
		Workloads: []sweep.Workload{{Seq: seq}},
		RUs:       o.units,
		Latencies: []simtime.Time{o.latency},
		Policies:  o.policies,
	}
	var storeWait *sweep.StoreWait
	var poolWatch *coord.PoolWatch
	out := io.Writer(os.Stdout)
	if setup.Coord != nil {
		// A pool populate (or a merge against one) is only useful if the
		// grid can be persisted — an uncacheable spec would simulate
		// every slice and store nothing, failing only at merge time.
		if err := spec.Cacheable(); err != nil {
			fatal(fmt.Errorf("-coord: %w", err))
		}
		fingerprint := sweepFingerprint(wl, &spec)
		cfg := setup.Coord.Config(fingerprint)
		cks := coord.NewCheckpointStore(setup.Coord.Backend)
		if !setup.Merge {
			c, err := coord.Open(cfg)
			if errors.Is(err, coord.ErrUninitialised) {
				fatal(fmt.Errorf("%w (pass -coord-shards N to initialise the pool)", err))
			}
			if err != nil {
				fatal(err)
			}
			stats, err := c.RunWorkers(setup.Coord.Workers, func(r coord.ShardRun) error {
				sp := spec
				sp.Shard = sweep.Shard{Index: r.Shard, Count: r.Count}
				// Checkpointed populate: a re-leased shard resumes past the
				// spec indices a dead worker's attempt already stored.
				ex := sweep.Executor{Workers: setup.Parallel, Store: store, MaxScenarioRetries: setup.Retries}
				if _, err := ex.CollectResumable(sp, sweep.Discard, cks,
					fmt.Sprintf("shard-%04d/sweep", r.Shard), fingerprint); err != nil {
					return err
				}
				n := sp.Size()
				fmt.Fprintf(os.Stderr, "coord worker %s: shard %s: ran %d of %d scenarios (%d skipped by other shards) (attempt %d)\n",
					c.Owner(), sp.Shard, sp.Shard.SizeOf(n), n, n-sp.Shard.SizeOf(n), r.Attempt)
				return nil
			})
			if err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, stats.Summary(c.Shards()))
			return
		}
		// Coordinator-aware merge: refuse a pool that has not drained, or
		// — with -watch — render while it drains and error if it dies.
		_, pw, poll, err := coord.MergeGate(cfg, setup.Watch, os.Stderr)
		if err != nil {
			fatal(err)
		}
		if pw != nil {
			poolWatch = pw
			defer poolWatch.Stop()
			storeWait = &sweep.StoreWait{Poll: poll, Done: poolWatch.Done}
			// Checkpointed render: a killed watch merge left the byte
			// offset it had printed; the resumed render re-renders from the
			// store and suppresses exactly that prefix, so partial output +
			// resumed output reassemble the plain table byte for byte.
			resume := campaign.LoadMergeOffset(cks, fingerprint)
			if resume > 0 {
				fmt.Fprintf(os.Stderr, "merge checkpoint: resuming at byte offset %d\n", resume)
			}
			out = &campaign.CheckpointedWriter{W: os.Stdout, Resume: resume,
				Save: func(total int64) { campaign.SaveMergeOffset(cks, fingerprint, total) }}
			defer campaign.SaveMergeOffset(cks, fingerprint, 0)
		}
	}
	if setup.HasShard {
		spec.Shard = setup.Shard
		ex := sweep.Executor{Workers: setup.Parallel, Store: store, MaxScenarioRetries: setup.Retries}
		if err := ex.Collect(spec, sweep.Discard); err != nil {
			fatal(err)
		}
		n := spec.Size()
		fmt.Fprintf(os.Stderr, "shard %s: ran %d of %d scenarios (%d skipped by other shards)\n",
			setup.Shard, setup.Shard.SizeOf(n), n, n-setup.Shard.SizeOf(n))
		return
	}
	ex := sweep.Executor{Workers: setup.Parallel, Store: store, RequireStored: setup.Merge,
		StoreWait: storeWait, MaxScenarioRetries: setup.Retries}
	if err := campaign.RenderSweepTable(wl, len(seq), spec, ex, out); err != nil {
		fatal(err)
	}
	if poolWatch != nil {
		// -watch blocks until the pool drains, not merely until the table
		// is complete (the last done records can trail the store writes).
		if _, err := poolWatch.Wait(); err != nil {
			fatal(err)
		}
	}
}

// sweepFingerprint identifies the exact grid a coordinator pool tiles:
// the canonical config hashes of every scenario the spec expands to.
// Hosts whose flags expand to a different grid are refused at Open
// instead of corrupting the pool's store coverage.
func sweepFingerprint(wl string, spec *sweep.Spec) string {
	keys, err := spec.ScenarioKeys()
	if err != nil {
		fatal(err)
	}
	h := resultstore.NewHash()
	h.String("cli", "rtrsim")
	h.String("workload", wl)
	for _, k := range keys {
		h.String("scenario", k)
	}
	return h.Sum()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtrsim:", err)
	os.Exit(1)
}
