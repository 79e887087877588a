// Command rtrrepro regenerates every table and figure of the paper's
// evaluation. With no flags it runs the complete suite with the paper's
// parameters (500 applications, 4–10 reconfigurable units, 4 ms latency).
//
//	rtrrepro                  # full suite
//	rtrrepro -only fig9a      # one experiment
//	rtrrepro -only fig2,fig3  # a subset
//	rtrrepro -apps 100 -seed 7 -rus 3-8
//	rtrrepro -store .rtr-store   # persist results; re-runs are warm
//
// With -store DIR (or RTR_STORE set), every grid experiment serves
// scenarios already on disk instead of re-simulating them and the reports
// stay byte-identical — CI runs the suite twice into one store and diffs
// the outputs. The hit/miss digest goes to stderr, never into a report.
//
// A sweep too large for one machine splits across hosts sharing a store.
// The self-healing way is the coordinator — every host runs the same
// command and the pool divides the work by leasing shards; the merge can
// run anywhere, even before the workers, with -watch:
//
//	every host:  rtrrepro -store /shared/store -coord /shared/coord -coord-shards 16
//	any host:    rtrrepro -store /shared/store -coord /shared/coord -merge-report -watch > report.txt
//
// The store and coordinator need not be directories at all: with an
// rtrserved control plane the same commands run over the wire —
//
//	every host:  rtrrepro -store http://host:8080/c/ID -coord http://host:8080/c/ID
//	any host:    rtrrepro -store http://host:8080/c/ID -coord http://host:8080/c/ID -merge-report -watch
//
// (-auth-token/-http-timeout tune the wire client; see EXPERIMENTS.md
// "Running a sweep service").
//
// Each worker claims the next unleased shard, heartbeats while it
// populates the store, marks the shard done and claims another until
// none remain. A worker that dies mid-shard stops heartbeating; once its
// lease outlives -lease-ttl any surviving worker re-claims the shard and
// re-runs its slice (idempotent — the store dedupes by config hash, so
// only what the dead worker left unfinished re-simulates).
// -coord-workers N runs N claim loops inside one process;
// -coord-status prints the per-shard state without running anything.
//
// The watch merge renders each report row the moment the pool stores its
// scenarios, printing per-shard progress to stderr, and uses the same
// lease TTL for liveness: a pool whose newest heartbeat or completion is
// older than the TTL is declared dead and the merge errors instead of
// waiting forever. Without -watch, -merge-report next to -coord checks
// the pool has drained and refuses with its per-shard tally otherwise.
//
// Manual sharding remains for fixed CI matrices: -shard i/N runs every
// grid experiment's scenarios whose spec index ≡ i (mod N) into the
// store and renders nothing (a per-shard digest — scenarios ran, skipped
// by other shards, store hits/misses — goes to stderr). Either way,
// -merge-report renders the full suite purely from the store: a grid
// scenario missing from it is an error, never a silent re-simulation, so
// the merged report is byte-identical to a single-process run — CI
// enforces exactly that, including after SIGKILLing a coordinator worker
// mid-sweep. Experiments with nothing to persist (worked examples,
// timing tables, trace or per-task-latency sweeps) run live at merge
// time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/mobility"
	"repro/internal/profiling"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rtrrepro:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args and writes the reports to stdout
// and the progress and digest lines to stderr. Every error returns
// through it, so the profiles are flushed on a failed run too.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rtrrepro", flag.ExitOnError)
	var (
		only    = fs.String("only", "", "comma-separated experiment ids (default: all); known: "+strings.Join(experiments.IDs(), ", "))
		seed    = fs.Int64("seed", 2011, "workload generation seed")
		apps    = fs.Int("apps", 500, "number of applications in the Fig. 9 workload")
		rus     = fs.String("rus", "4-10", "reconfigurable-unit sweep, e.g. \"4-10\" or \"3,4,6\"")
		latency = fs.Float64("latency", 4, "reconfiguration latency in ms")
		csv     = fs.Bool("csv", false, "also emit CSV after each figure table")

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
			fmt.Fprintln(stderr, "rtrrepro:", err)
		}
	}()

	setup, err := cf.Resolve()
	if err != nil {
		return err
	}
	store := setup.Store
	// Design-time artifact tier: with a store attached, mobility tables
	// computed by this run persist next to the results, and tables any
	// previous run stored are loaded instead of recomputed. Counters
	// start from zero for this run's digest.
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
	opt := experiments.Options{
		Seed:          *seed,
		Apps:          *apps,
		RUs:           units,
		Latency:       simtime.FromMs(*latency),
		CSV:           *csv,
		Parallel:      setup.Parallel,
		Store:         store,
		RequireStored: setup.Merge,
	}

	selected, err := selectExperiments(*only)
	if err != nil {
		return err
	}

	var poolWatch *coord.PoolWatch
	out := stdout
	// resetCheckpoint, set by a watch merge, clears its render checkpoint
	// once the merge has succeeded; a failed merge keeps it to resume.
	resetCheckpoint := func() {}
	if setup.Coord != nil {
		fingerprint := coordFingerprint(opt, selected)
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
			// Checkpointed populate: a re-leased shard resumes past the
			// spec indices a dead worker's attempt already stored.
			opt.Checkpoints, opt.Fingerprint = cks, fingerprint
			stats, err := c.RunWorkers(setup.Coord.Workers, func(r coord.ShardRun) error {
				sh := sweep.Shard{Index: r.Shard, Count: r.Count}
				st, err := experiments.Populate(opt, selected, sh)
				if err != nil {
					return err
				}
				fmt.Fprintf(stderr, "coord worker %s: %s (attempt %d)\n", c.Owner(), shardDigest(sh, st), r.Attempt)
				return nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(stderr, stats.Summary(c.Shards()))
			fmt.Fprintln(stderr, store.SummaryLine())
			printMobilityDigest(stderr)
			return nil
		}
		// Coordinator-aware merge: consult the pool before rendering from
		// the store. Without -watch a pool that has not drained is an
		// immediate, pointed error; with -watch the suite renders while
		// the pool populates, each row the moment its scenarios land, and
		// a pool dead past its lease TTL fails the merge instead of
		// hanging it.
		_, pw, poll, err := coord.MergeGate(cfg, setup.Watch, stderr)
		if err != nil {
			return err
		}
		if pw != nil {
			poolWatch = pw
			defer poolWatch.Stop()
			opt.StoreWait = &sweep.StoreWait{Poll: poll, Done: poolWatch.Done}
			// Checkpointed render: a killed watch merge left the byte
			// offset it had printed; the resumed render re-renders from
			// the store (pure serve hits) and suppresses exactly that
			// prefix, so partial-output + resumed-output reassemble the
			// plain report byte for byte. A completed merge resets the
			// offset so a deliberate re-render prints in full.
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
		st, err := experiments.Populate(opt, selected, setup.Shard)
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, shardDigest(setup.Shard, st))
		fmt.Fprintln(stderr, store.SummaryLine())
		printMobilityDigest(stderr)
		return nil
	}

	if err := campaign.RenderSuite(opt, selected, out); err != nil {
		return err
	}
	if poolWatch != nil {
		// -watch blocks until the pool drains, not merely until the
		// report is complete: the last done records can trail the store
		// writes the report consumed, and a worker that dies right at the
		// end should still be reported.
		if _, err := poolWatch.Wait(); err != nil {
			return err
		}
	}
	resetCheckpoint()
	if store != nil {
		fmt.Fprintln(stderr, store.SummaryLine())
	}
	printMobilityDigest(stderr)
	return nil
}

// printMobilityDigest emits the design-time cache digest to stderr when
// this run touched the mobility cache at all. Keep the format stable —
// the CI artifact-reuse gate greps it.
func printMobilityDigest(w io.Writer) {
	if line := mobility.DigestLine(); line != "" {
		fmt.Fprintln(w, line)
	}
}

// shardDigest renders the per-shard stderr line operators read to verify
// a shard actually ran its slice: scenarios owned and executed vs
// skipped because other shards own them. Keep the format stable — the
// CI shard determinism gate greps it.
func shardDigest(shard sweep.Shard, st experiments.PopulateStats) string {
	return fmt.Sprintf("shard %s: ran %d of %d grid scenarios across %d grids (%d skipped by other shards)",
		shard, st.Ran, st.Scenarios, st.Grids, st.SkippedByShard)
}

// coordFingerprint identifies the sweep a coordinator pool is running —
// the parameters that determine the store entries the shards populate.
// Hosts launched with different flags against one pool would tile
// different grids into one store and fail only at merge time; the
// fingerprint turns that operator error into an immediate refusal.
func coordFingerprint(opt experiments.Options, selected []experiments.Experiment) string {
	h := resultstore.NewHash()
	h.String("cli", "rtrrepro")
	h.Int("seed", opt.Seed)
	h.Int("apps", int64(opt.Apps))
	for _, r := range opt.RUs {
		h.Int("ru", int64(r))
	}
	h.Int("latency", int64(opt.Latency))
	for _, e := range selected {
		h.String("experiment", e.ID)
	}
	return h.Sum()
}

// selectExperiments resolves the -only flag: empty means the full suite.
func selectExperiments(only string) ([]experiments.Experiment, error) {
	if only == "" {
		return campaign.SelectExperiments(nil)
	}
	return campaign.SelectExperiments(strings.Split(only, ","))
}
