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
// A grid too large for one machine splits across hosts sharing a store:
//
//	every host:  rtrsim -policy lru,lfd -rus 4-10 -store /shared -coord /shared/coord -coord-shards 8
//	any host:    rtrsim -policy lru,lfd -rus 4-10 -store /shared -coord /shared/coord -merge-report -watch
//	fixed split: rtrsim -policy lru,lfd -rus 4-10 -store /shared -shard 0/4   # … 3/4, then -merge-report
//
// Both locators also take an rtrserved campaign URL. The modes are the
// same for rtrrepro; the internal/campaign package comment and
// EXPERIMENTS.md §"Multi-host sweeps" tell how they work.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/profiling"
	"repro/internal/resultstore"
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
	return campaign.Drive(context.Background(), setup, stdout, stderr, func() (campaign.Job, error) {
		units, err := sweep.ParseRUs(*rus)
		if err != nil {
			return nil, err
		}
		spec, err := campaign.SweepGrid(*wl, *apps, *seed, *pol, *skip, *prefetch, units, *latency)
		if err != nil {
			return nil, err
		}
		g := grid{wl: *wl, spec: spec, setup: setup}
		needTrace := *gantt || *svgOut != "" || *traceOut != ""
		sharded := setup.HasShard || setup.Merge || setup.Coord != nil
		switch {
		case spec.Size() == 1 && !sharded:
			// A schedule view needs the trace, which is not serialized,
			// so Spec.Cacheable sends such a run past the store.
			g.spec.RecordTrace = needTrace
			return single{g, *gantt, *tick, *svgOut, *traceOut}, nil
		case needTrace && sharded:
			return nil, fmt.Errorf("-gantt/-svg/-trace need a single live scenario, not a sharded sweep")
		case needTrace:
			return nil, fmt.Errorf("-gantt/-svg/-trace need a single scenario; got %d policies × %d unit counts",
				len(spec.Policies), len(units))
		}
		return g, nil
	})
}

// grid is the campaign.Job of a policies × unit-counts sweep: its
// report prints one comparison row per scenario, in spec order, the
// moment the scenario lands, so the sweep holds O(workers) raw runs and
// the renderer O(1) rows however many scenarios the flags expand to.
type grid struct {
	wl    string
	spec  sweep.Spec
	setup campaign.Setup
}

func (g grid) Fingerprint() (string, error) {
	// A pool populate (or a merge against one) is only useful if the
	// grid can be persisted — an uncacheable spec would simulate every
	// slice and store nothing, failing only at merge time.
	if err := g.spec.Cacheable(); err != nil {
		return "", fmt.Errorf("-coord: %w", err)
	}
	return sweepFingerprint(g.wl, &g.spec)
}

func (g grid) Populate(sh sweep.Shard, cks sweep.CheckpointStore, fingerprint string) (string, error) {
	sp := g.spec
	sp.Shard = sh
	ex := sweep.Executor{Workers: g.setup.Parallel, Store: g.setup.Store}
	// A re-leased shard resumes past the spec indices an earlier attempt
	// already stored.
	if _, err := ex.Populate(sp, cks, fmt.Sprintf("shard-%04d/sweep", sh.Index), fingerprint); err != nil {
		return "", err
	}
	n := sp.Size()
	return fmt.Sprintf("shard %s: ran %d of %d scenarios (%d skipped by other shards)",
		sh, sh.SizeOf(n), n, n-sh.SizeOf(n)), nil
}

func (g grid) Render(wait *sweep.StoreWait, w io.Writer) error {
	ex := sweep.Executor{Workers: g.setup.Parallel, Store: g.setup.Store,
		RequireStored: g.setup.Merge, StoreWait: wait}
	return campaign.RenderSweepTable(g.wl, g.spec, ex, w)
}

// single is the campaign.Job of a one-scenario run outside any pool:
// it prints the full metric report and the schedule views.
type single struct {
	grid
	gantt            bool
	tick             float64
	svgOut, traceOut string
}

// Render runs the scenario, served from the store when it is there.
func (s single) Render(_ *sweep.StoreWait, w io.Writer) error {
	rs, err := sweep.Executor{Store: s.setup.Store}.Run(s.spec)
	if err != nil {
		return err
	}
	res := rs.Results[0]
	sum := res.Summary
	fmt.Fprintf(w, "workload        %s (%d applications, %d task executions)\n", s.wl, len(s.spec.Workloads[0].Seq), sum.Executed)
	fmt.Fprintf(w, "system          %d RUs, latency %v\n", sum.RUs, sum.Latency)
	// The spec's display name already carries the skip suffix.
	fmt.Fprintf(w, "policy          %s\n", s.spec.Policies[0].Name)
	fmt.Fprintf(w, "reuse           %d/%d = %.2f%%\n", sum.Reused, sum.Executed, sum.ReuseRate())
	fmt.Fprintf(w, "makespan        %v (ideal %v)\n", sum.Makespan, sum.IdealMakespan)
	fmt.Fprintf(w, "overhead        %v (%.2f%% of the original %v)\n",
		sum.Overhead(), sum.RemainingOverheadPct(), sum.OriginalOverhead())
	fmt.Fprintf(w, "loads           %d (skips taken: %d, preloads: %d)\n",
		sum.Loads, res.Run.Skips, res.Run.Preloads)
	if d := sum.Delay; d.Count > 0 {
		fmt.Fprintf(w, "per-app delay   mean %v, p50 %v, p95 %v, max %v\n", d.Mean, d.P50, d.P95, d.Max)
	}
	if s.gantt {
		fmt.Fprintln(w)
		fmt.Fprint(w, res.Run.Trace.Gantt(trace.GanttOptions{TickMs: s.tick}))
	}
	if s.svgOut != "" {
		if err := os.WriteFile(s.svgOut, []byte(res.Run.Trace.SVG()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "schedule SVG    %s\n", s.svgOut)
	}
	if s.traceOut != "" {
		data, err := json.MarshalIndent(res.Run.Trace, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace JSON      %s\n", s.traceOut)
	}
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
