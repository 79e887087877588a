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
// stay byte-identical. The hit/miss digest goes to stderr, never into a
// report.
//
// A suite too large for one machine splits across hosts sharing a store:
//
//	every host:  rtrrepro -store /shared/store -coord /shared/coord -coord-shards 16
//	any host:    rtrrepro -store /shared/store -coord /shared/coord -merge-report -watch > report.txt
//	fixed split: rtrrepro -store /shared/store -shard 0/4   # … 3/4, then -merge-report
//
// Both locators also take an rtrserved campaign URL. The modes are the
// same for rtrsim; the internal/campaign package comment and
// EXPERIMENTS.md §"Multi-host sweeps" tell how they work. Experiments
// with nothing to persist (worked examples, counted tables, trace or
// per-task-latency sweeps) run live at merge time.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/experiments"
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
	return campaign.Drive(context.Background(), setup, stdout, stderr, func() (campaign.Job, error) {
		units, err := sweep.ParseRUs(*rus)
		if err != nil {
			return nil, err
		}
		selected, err := selectExperiments(*only)
		if err != nil {
			return nil, err
		}
		return suite{opt: experiments.Options{
			Seed:          *seed,
			Apps:          *apps,
			RUs:           units,
			Latency:       simtime.FromMs(*latency),
			CSV:           *csv,
			Parallel:      setup.Parallel,
			Store:         setup.Store,
			RequireStored: setup.Merge,
		}, selected: selected}, nil
	})
}

// suite is the campaign.Job of the selected experiments.
type suite struct {
	opt      experiments.Options
	selected []experiments.Experiment
}

func (s suite) Fingerprint() (string, error) { return coordFingerprint(s.opt, s.selected), nil }

func (s suite) Populate(sh sweep.Shard, cks sweep.CheckpointStore, fingerprint string) (string, error) {
	opt := s.opt
	opt.Checkpoints, opt.Fingerprint = cks, fingerprint
	st, err := experiments.Populate(opt, s.selected, sh)
	if err != nil {
		return "", err
	}
	return shardDigest(sh, st), nil
}

func (s suite) Render(wait *sweep.StoreWait, w io.Writer) error {
	opt := s.opt
	opt.StoreWait = wait
	return campaign.RenderSuite(opt, s.selected, w)
}

// shardDigest renders the per-shard stderr line operators read to verify
// a shard actually ran its slice: scenarios owned and executed vs
// skipped because other shards own them. Keep the format stable —
// TestEndToEnd greps it.
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
