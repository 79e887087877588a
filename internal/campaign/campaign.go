// Package campaign is the shared campaign layer above the store and
// coordinator: the part of rtrrepro and rtrsim that is the same sweep no
// matter where it runs — which experiments a suite selects, how a
// policy grid is built and renders, how the -store/-coord flag set
// resolves into opened backends (internal/cliflags) — plus the
// server-side renderer cmd/rtrserved injects into internal/serve (which
// cannot import sweep/experiments itself; see the serve package
// comment). A report the server streams is byte-identical to the one a
// CLI renders because both run these same functions.
//
// Drive runs one CLI invocation in the mode its flags select; a CLI
// hands it only a Job, which says what its sweep is, how one shard of
// it populates the store and how its report renders:
//
//   - plain: run the sweep (serving store hits) and print the report;
//   - -coord: every host runs the same command and a self-healing pool
//     leases shards to it. Each claim loop (-coord-workers runs several)
//     heartbeats while it populates its shard, marks it done and claims
//     the next, printing "coord worker OWNER: DIGEST (attempt N)". A
//     worker that stops heartbeating for -lease-ttl loses its shard to
//     a survivor, which re-runs it idempotently: the store dedupes by
//     config hash and run checkpoints skip what the dead attempt stored;
//   - -shard i/N: populate the scenarios whose spec index ≡ i (mod N)
//     and print the shard digest, for fixed CI matrices;
//   - -merge-report: render purely from the store; a scenario missing
//     from it is an error, never a silent re-simulation. Next to -coord
//     it refuses a pool that has not drained, with its tally; with
//     -watch it renders each row the moment the pool stores its
//     scenarios, prints per-shard progress, blocks until the pool
//     drains and errors once the pool is silent for twice its lease
//     TTL. A killed watch merge resumes from its byte-offset checkpoint
//     ("merge checkpoint: resuming at byte offset N");
//   - -store-gc and -coord-status: collect the store or print the
//     pool's per-shard table, and exit.
//
// Every mode but the two exits ends with the store digest (when a store
// is set) and the mobility digest on stderr. EXPERIMENTS.md §"Multi-host sweeps" is the
// operator's walkthrough.
package campaign

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/coord"
	"repro/internal/dynlist"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// SelectExperiments resolves suite experiment ids: empty means the
// full suite. The error enumerates the known ids (both CLIs and the
// server validation path print it verbatim).
func SelectExperiments(ids []string) ([]experiments.Experiment, error) {
	if len(ids) == 0 {
		return experiments.All(), nil
	}
	var selected []experiments.Experiment
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q; known: %s", id, strings.Join(experiments.IDs(), ", "))
		}
		selected = append(selected, e)
	}
	return selected, nil
}

// buildWorkload constructs a named workload sequence (fig2, fig3, or
// the seeded multimedia stream).
func buildWorkload(name string, apps int, seed int64) ([]*taskgraph.Graph, error) {
	switch name {
	case "fig2":
		return workload.Fig2Sequence(), nil
	case "fig3":
		return workload.Fig3Sequence(), nil
	case "multimedia":
		return dynlist.RandomSequence(workload.Multimedia(), apps, rand.New(rand.NewSource(seed)))
	default:
		return nil, fmt.Errorf("unknown workload %q (want fig2, fig3 or multimedia)", name)
	}
}

// SweepGrid builds the rtrsim comparison grid: every policy of the
// comma list (with skip events and cross-graph prefetch as given) at
// every unit count, on the named workload at one latency.
func SweepGrid(wl string, apps int, seed int64, policies string, skip, prefetch bool, rus []int, latencyMS float64) (sweep.Spec, error) {
	pols, err := sweep.ParsePolicies(policies, skip)
	if err != nil {
		return sweep.Spec{}, err
	}
	seq, err := buildWorkload(wl, apps, seed)
	if err != nil {
		return sweep.Spec{}, err
	}
	for i := range pols {
		pols[i].CrossGraphPrefetch = prefetch
	}
	return sweep.Spec{
		Workloads: []sweep.Workload{{Seq: seq}},
		RUs:       rus,
		Latencies: []simtime.Time{simtime.FromMs(latencyMS)},
		Policies:  pols,
	}, nil
}

// RenderSuite prints the rtrrepro report: the parameter header line
// followed by every selected experiment, in order (experiments.Render).
func RenderSuite(opt experiments.Options, selected []experiments.Experiment, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "reproduction suite: seed %d, %d apps, RUs %v, latency %v\n",
		opt.Seed, opt.Apps, opt.RUs, opt.Latency); err != nil {
		return err
	}
	return experiments.Render(opt, selected, w)
}

// RenderSweepTable prints the rtrsim comparison table of a SweepGrid
// spec: the workload header, the column header, and one row per
// scenario in spec order, each the moment its scenario lands.
func RenderSweepTable(wl string, spec sweep.Spec, ex sweep.Executor, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "workload        %s (%d applications), latency %v, %d scenarios\n",
		wl, len(spec.Workloads[0].Seq), spec.Latencies[0], spec.Size()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-30s %4s %10s %14s %12s %8s %8s\n",
		"policy", "RUs", "reuse %", "makespan", "remaining %", "loads", "skips"); err != nil {
		return err
	}
	rr := &sweep.RowRenderer{
		Emit: func(i int, rows []sweep.SummaryRow) error {
			row := rows[0]
			s := row.Summary
			_, err := fmt.Fprintf(w, "%-30s %4d %10.2f %14v %12.2f %8d %8d\n",
				s.PolicyName, row.Scenario.RUs, s.ReuseRate(), s.Makespan, s.RemainingOverheadPct(),
				s.Loads, row.Counters.Skips)
			return err
		},
	}
	if err := ex.Collect(spec, rr); err != nil {
		return err
	}
	return rr.Close()
}

// normalize fills a wire spec's zero values with the CLI defaults, so
// a minimal submission ({"kind":"suite"}) means what the bare CLI
// invocation means.
func normalize(s wire.Spec) wire.Spec {
	if s.Seed == 0 {
		s.Seed = 2011
	}
	if s.Apps <= 0 {
		s.Apps = 500
	}
	if len(s.RUs) == 0 {
		s.RUs = []int{4, 5, 6, 7, 8, 9, 10}
	}
	if s.LatencyMS <= 0 {
		s.LatencyMS = 4
	}
	if s.Workload == "" {
		s.Workload = "multimedia"
	}
	if len(s.Policies) == 0 {
		s.Policies = []string{"locallfd:1"}
	}
	return s
}

// plan turns a normalized wire spec into runnable pieces.
type plan struct {
	spec     wire.Spec
	selected []experiments.Experiment // suite
	grid     sweep.Spec               // sweep
}

func buildPlan(s wire.Spec) (*plan, error) {
	s = normalize(s)
	p := &plan{spec: s}
	var err error
	switch s.Kind {
	case "suite":
		p.selected, err = SelectExperiments(s.Only)
	case "sweep":
		p.grid, err = SweepGrid(s.Workload, s.Apps, s.Seed, strings.Join(s.Policies, ","), s.Skip, s.Prefetch, s.RUs, s.LatencyMS)
		if err == nil {
			err = p.grid.Cacheable()
		}
	default:
		err = fmt.Errorf("campaign spec kind %q (want suite or sweep)", s.Kind)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// render renders the plan's report purely from store, as the
// equivalent CLI -merge-report prints it.
func (p *plan) render(store *resultstore.Store) func(*sweep.StoreWait, io.Writer) error {
	return func(wait *sweep.StoreWait, w io.Writer) error {
		s := p.spec
		if s.Kind == "sweep" {
			ex := sweep.Executor{Workers: s.Parallel, Store: store, RequireStored: true, StoreWait: wait}
			return RenderSweepTable(s.Workload, p.grid, ex, w)
		}
		opt := experiments.Options{
			Seed:          s.Seed,
			Apps:          s.Apps,
			RUs:           s.RUs,
			Latency:       simtime.FromMs(s.LatencyMS),
			Parallel:      s.Parallel,
			Store:         store,
			RequireStored: true,
			StoreWait:     wait,
		}
		return RenderSuite(opt, p.selected, w)
	}
}

// CheckSpec vets a campaign submission without running anything: it
// is the serve.Config.Check hook, so a bad experiment id or policy
// string is refused at POST time, not at first render.
func CheckSpec(s wire.Spec) error {
	_, err := buildPlan(s)
	return err
}

// Render is the serve.Config.Rows hook: it renders the campaign's
// report into w — exactly the bytes the equivalent CLI watch merge
// prints locally — while the worker pool populates the store, blocking
// until the pool drains. The pool need not exist yet: Render waits for
// the first worker to initialise it, until ctx ends. The merge's
// progress lines are server-side noise, not report bytes, and the
// stream keeps no merge checkpoint.
func Render(ctx context.Context, c *serve.Campaign, w io.Writer) error {
	p, err := buildPlan(c.Spec())
	if err != nil {
		return err
	}
	return mergeReport(ctx, coord.Config{Backend: c.Coord()}, true, io.Discard, nil, p.render(c.Store()), w)
}
