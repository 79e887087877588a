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
	"repro/internal/mobility"
	"repro/internal/profiling"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rtrsim:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args and writes the report to stdout and
// the progress and digest lines to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rtrsim", flag.ExitOnError)
	var (
		wl       = fs.String("workload", "multimedia", "workload: fig2, fig3, or multimedia")
		apps     = fs.Int("apps", 500, "sequence length for the multimedia workload")
		seed     = fs.Int64("seed", 2011, "sequence seed for the multimedia workload")
		pol      = fs.String("policy", "locallfd:1", "replacement policy (lru, mru, fifo, random[:seed], lfd, locallfd:<w>); a comma list sweeps them")
		rus      = fs.String("rus", "4", "number of reconfigurable units; a range (\"4-10\") or list (\"4,6\") sweeps them")
		latency  = fs.Float64("latency", 4, "reconfiguration latency in ms")
		skip     = fs.Bool("skip", false, "enable skip events (hybrid design-time/run-time technique)")
		prefetch = fs.Bool("prefetch", false, "enable the cross-graph prefetch extension")
		gantt    = fs.Bool("gantt", false, "print the schedule as an ASCII Gantt chart (single run only)")
		tick     = fs.Float64("tick", 0, "Gantt: ms per column (0 = auto)")
		svgOut   = fs.String("svg", "", "write the schedule as SVG to this file (single run only)")
		traceOut = fs.String("trace", "", "write the execution trace as JSON to this file (single run only)")

		cf = cliflags.Register(fs)

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of this run to the file (inspect with go tool pprof; see EXPERIMENTS.md)")
		memProfile = fs.String("memprofile", "", "write a heap profile (live memory after GC) to the file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stderr = &campaign.LockedWriter{W: stderr}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "rtrsim:", err)
		}
	}()

	setup, err := cf.Resolve()
	if err != nil {
		return err
	}
	store := setup.Store
	// Design-time artifact tier: with a store attached, mobility tables
	// persist next to the results and warm runs load them instead of
	// recomputing. Counters start from zero for this run's digest.
	mobility.ResetStats()
	if store != nil {
		defer artifact.Install(store)()
	}
	if setup.StoreGC {
		line, err := resultstore.RunGC(store)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line)
		return nil
	}
	if setup.CoordStatus {
		report, err := setup.StatusReport()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, report)
		return nil
	}

	units, err := sweep.ParseRUs(*rus)
	if err != nil {
		return err
	}
	policies, err := sweep.ParsePolicies(*pol, *skip)
	if err != nil {
		return err
	}
	seq, err := campaign.BuildWorkload(*wl, *apps, *seed)
	if err != nil {
		return err
	}
	for i := range policies {
		policies[i].CrossGraphPrefetch = *prefetch
	}
	spec := sweep.Spec{
		Workloads: []sweep.Workload{{Seq: seq}},
		RUs:       units,
		Latencies: []simtime.Time{simtime.FromMs(*latency)},
		Policies:  policies,
	}
	needTrace := *gantt || *svgOut != "" || *traceOut != ""
	sharded := setup.HasShard || setup.Merge || setup.Coord != nil
	if spec.Size() == 1 && !sharded {
		// A schedule view needs the trace, which is not serialized, so
		// Spec.Cacheable sends such a run past the store.
		spec.RecordTrace = needTrace
		err = runSingle(stdout, *wl, spec, sweep.Executor{Store: store},
			*gantt, *tick, *svgOut, *traceOut)
	} else {
		if needTrace {
			if sharded {
				return fmt.Errorf("-gantt/-svg/-trace need a single live scenario, not a sharded sweep")
			}
			return fmt.Errorf("-gantt/-svg/-trace need a single scenario; got %d policies × %d unit counts",
				len(policies), len(units))
		}
		err = runSweep(stdout, stderr, *wl, spec, setup)
	}
	if err != nil {
		return err
	}
	if store != nil {
		fmt.Fprintln(stderr, store.SummaryLine())
	}
	if line := mobility.DigestLine(); line != "" {
		fmt.Fprintln(stderr, line)
	}
	return nil
}

// runSingle runs the one scenario of spec on ex and prints the full
// metric report and the schedule views; with a store attached, repeated
// runs are served from it.
func runSingle(w io.Writer, wl string, spec sweep.Spec, ex sweep.Executor, gantt bool, tick float64, svgOut, traceOut string) error {
	rs, err := ex.Run(spec)
	if err != nil {
		return err
	}
	res := rs.Results[0]

	s := res.Summary
	fmt.Fprintf(w, "workload        %s (%d applications, %d task executions)\n", wl, len(spec.Workloads[0].Seq), s.Executed)
	fmt.Fprintf(w, "system          %d RUs, latency %v\n", s.RUs, s.Latency)
	// The spec's display name already carries the skip suffix.
	fmt.Fprintf(w, "policy          %s\n", spec.Policies[0].Name)
	fmt.Fprintf(w, "reuse           %d/%d = %.2f%%\n", s.Reused, s.Executed, s.ReuseRate())
	fmt.Fprintf(w, "makespan        %v (ideal %v)\n", s.Makespan, s.IdealMakespan)
	fmt.Fprintf(w, "overhead        %v (%.2f%% of the original %v)\n",
		s.Overhead(), s.RemainingOverheadPct(), s.OriginalOverhead())
	fmt.Fprintf(w, "loads           %d (skips taken: %d, preloads: %d)\n",
		s.Loads, res.Run.Skips, res.Run.Preloads)
	if d := s.Delay; d.Count > 0 {
		fmt.Fprintf(w, "per-app delay   mean %v, p50 %v, p95 %v, max %v\n", d.Mean, d.P50, d.P95, d.Max)
	}
	if gantt {
		fmt.Fprintln(w)
		fmt.Fprint(w, res.Run.Trace.Gantt(trace.GanttOptions{TickMs: tick}))
	}
	if svgOut != "" {
		if err := os.WriteFile(svgOut, []byte(res.Run.Trace.SVG()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "schedule SVG    %s\n", svgOut)
	}
	if traceOut != "" {
		data, err := json.MarshalIndent(res.Run.Trace, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace JSON      %s\n", traceOut)
	}
	return nil
}

// runSweep executes the policies × unit-counts grid on the streaming
// executor and prints one comparison row per scenario, in spec order,
// the moment the scenario lands — the sweep holds O(workers) raw runs
// and the renderer O(1) rows however many scenarios the flags expand to.
// In a watch-mode merge the rows appear as the coordinator pool stores
// their scenarios.
func runSweep(stdout, stderr io.Writer, wl string, spec sweep.Spec, setup campaign.Setup) error {
	store := setup.Store
	var storeWait *sweep.StoreWait
	var poolWatch *coord.PoolWatch
	out := stdout
	// resetCheckpoint, set by a watch merge, clears its render checkpoint
	// once the merge has succeeded; a failed merge keeps it to resume.
	resetCheckpoint := func() {}
	if setup.Coord != nil {
		// A pool populate (or a merge against one) is only useful if the
		// grid can be persisted — an uncacheable spec would simulate
		// every slice and store nothing, failing only at merge time.
		if err := spec.Cacheable(); err != nil {
			return fmt.Errorf("-coord: %w", err)
		}
		fingerprint, err := sweepFingerprint(wl, &spec)
		if err != nil {
			return err
		}
		cfg := setup.Coord.Config(fingerprint)
		cks := coord.NewCheckpointStore(setup.Coord.Backend)
		if !setup.Merge {
			c, err := coord.Open(cfg)
			if errors.Is(err, coord.ErrUninitialised) {
				return fmt.Errorf("%w (pass -coord-shards N to initialise the pool)", err)
			}
			if err != nil {
				return err
			}
			stats, err := c.RunWorkers(setup.Coord.Workers, func(r coord.ShardRun) error {
				sp := spec
				sp.Shard = sweep.Shard{Index: r.Shard, Count: r.Count}
				// Checkpointed populate: a re-leased shard resumes past the
				// spec indices a dead worker's attempt already stored.
				ex := sweep.Executor{Workers: setup.Parallel, Store: store}
				if _, err := ex.CollectResumable(sp, sweep.Discard, cks,
					fmt.Sprintf("shard-%04d/sweep", r.Shard), fingerprint); err != nil {
					return err
				}
				n := sp.Size()
				fmt.Fprintf(stderr, "coord worker %s: shard %s: ran %d of %d scenarios (%d skipped by other shards) (attempt %d)\n",
					c.Owner(), sp.Shard, sp.Shard.SizeOf(n), n, n-sp.Shard.SizeOf(n), r.Attempt)
				return nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(stderr, stats.Summary(c.Shards()))
			return nil
		}
		// Coordinator-aware merge: refuse a pool that has not drained, or
		// — with -watch — render while it drains and error if it dies.
		_, pw, poll, err := coord.MergeGate(cfg, setup.Watch, stderr)
		if err != nil {
			return err
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
				fmt.Fprintf(stderr, "merge checkpoint: resuming at byte offset %d\n", resume)
			}
			out = &campaign.CheckpointedWriter{W: stdout, Resume: resume,
				Save: func(total int64) { campaign.SaveMergeOffset(cks, fingerprint, total) }}
			resetCheckpoint = func() { campaign.SaveMergeOffset(cks, fingerprint, 0) }
		}
	}
	if setup.HasShard {
		spec.Shard = setup.Shard
		ex := sweep.Executor{Workers: setup.Parallel, Store: store}
		if err := ex.Collect(spec, sweep.Discard); err != nil {
			return err
		}
		n := spec.Size()
		fmt.Fprintf(stderr, "shard %s: ran %d of %d scenarios (%d skipped by other shards)\n",
			setup.Shard, setup.Shard.SizeOf(n), n, n-setup.Shard.SizeOf(n))
		return nil
	}
	ex := sweep.Executor{Workers: setup.Parallel, Store: store, RequireStored: setup.Merge,
		StoreWait: storeWait}
	if err := campaign.RenderSweepTable(wl, len(spec.Workloads[0].Seq), spec, ex, out); err != nil {
		return err
	}
	if poolWatch != nil {
		// -watch blocks until the pool drains, not merely until the table
		// is complete (the last done records can trail the store writes).
		if _, err := poolWatch.Wait(); err != nil {
			return err
		}
	}
	resetCheckpoint()
	return nil
}

// sweepFingerprint identifies the exact grid a coordinator pool tiles:
// the canonical config hashes of every scenario the spec expands to.
// Hosts whose flags expand to a different grid are refused at Open
// instead of corrupting the pool's store coverage.
func sweepFingerprint(wl string, spec *sweep.Spec) (string, error) {
	keys, err := spec.ScenarioKeys()
	if err != nil {
		return "", err
	}
	h := resultstore.NewHash()
	h.String("cli", "rtrsim")
	h.String("workload", wl)
	for _, k := range keys {
		h.String("scenario", k)
	}
	return h.Sum(), nil
}
