// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the motivational examples (Section II) and
// the mobility worked example (Section V). Each experiment writes a
// self-contained text report giving the measured values next to the
// paper's published ones.
//
// The experiments are deterministic: workload sequences are drawn from a
// seeded generator, and the simulator itself has no hidden randomness.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// lruSeries and lfdSeries are the two stateless reference series every
// figure plots alongside the paper's policy.
func lruSeries() sweep.PolicySpec { return sweep.Fixed("LRU", policy.NewLRU()) }
func lfdSeries() sweep.PolicySpec { return sweep.Fixed("LFD", policy.NewLFD()) }

// Options parametrizes the experiment suite.
type Options struct {
	// Seed drives workload generation (default 2011, the paper's year).
	Seed int64
	// Apps is the length of the random application sequence for the
	// Fig. 9 experiments (paper: 500).
	Apps int
	// RUs is the sweep of unit counts for Fig. 9 (paper plots 4..10 and
	// remarks on 3).
	RUs []int
	// Latency is the reconfiguration latency (paper examples: 4 ms).
	Latency simtime.Time
	// CSV additionally emits machine-readable CSV after each figure
	// table (Fig. 9 family and ablations).
	CSV bool
	// Parallel bounds the number of concurrently simulated scenarios in
	// the sweep-backed experiments (≤0: one per CPU). Reports are
	// byte-identical at every setting; see internal/sweep.
	Parallel int
	// Store, when non-nil, persists scenario results keyed by canonical
	// config hash: every grid experiment transparently serves unchanged
	// scenarios from disk on re-runs, with reports byte-identical to a
	// cold run. Trace-consuming experiments (fig2, fig3, energy) bypass
	// it. See internal/resultstore.
	Store *resultstore.Store
	// RequireStored renders reports purely from Store: a cacheable grid
	// scenario missing from it fails the experiment instead of being
	// silently re-simulated. This is the -merge-report mode after N
	// sharded populate runs (see Populate); uncacheable pieces (traces,
	// per-task latencies) still run live. Requires Store.
	RequireStored bool
	// StoreWait, with RequireStored, is the watch-mode merge: a grid
	// scenario missing from Store is awaited (polled) instead of failed,
	// so the suite can start rendering before a coordinator pool has
	// finished populating the store — each report row prints the moment
	// its scenarios land. StoreWait.Done decides when waiting further is
	// pointless (pool drained or dead); see internal/sweep.StoreWait and
	// coord.(*Coordinator).Drained.
	StoreWait *sweep.StoreWait
	// Checkpoints, when non-nil, makes sharded populates resumable
	// mid-grid: Populate loads per-grid checkpoints, skips the prefix
	// the store already acknowledged, and saves fresh progress as
	// results land — so a re-leased shard repeats only the work since
	// the dead worker's last save. Fingerprint must be the campaign
	// fingerprint (the same identity the coordinator vets at Open);
	// checkpoints recorded under a different one are ignored.
	Checkpoints sweep.CheckpointStore
	// Fingerprint guards Checkpoints records against grids they do not
	// belong to.
	Fingerprint string

	// draws, set by Render and Populate for the length of the call,
	// shares each (Seed, Apps) workload between the experiments.
	draws *draws
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		Seed:    2011,
		Apps:    500,
		RUs:     []int{4, 5, 6, 7, 8, 9, 10},
		Latency: workload.PaperLatency(),
	}
}

// normalized fills zero fields with defaults.
func (o Options) normalized() Options {
	def := DefaultOptions()
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.Apps <= 0 {
		o.Apps = def.Apps
	}
	if len(o.RUs) == 0 {
		o.RUs = def.RUs
	}
	if o.Latency <= 0 {
		o.Latency = def.Latency
	}
	return o
}

// Workload draws the Fig. 9 experiment inputs: the template pool
// ({JPEG, MPEG-1, Hough}) and a sequence of Apps applications selected
// uniformly from it with the option seed. The sequence references the
// returned pool's template objects — mobility tables are keyed by
// template identity, so callers must compute them from this same pool.
func (o Options) Workload() (pool, seq []*taskgraph.Graph, err error) {
	pool = workload.Multimedia()
	if err := workload.ValidateUniverse(pool); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	seq, err = dynlist.RandomSequence(pool, o.Apps, rng)
	if err != nil {
		return nil, nil, err
	}
	return pool, seq, nil
}

// sequence is the sequence-only convenience over sweepWorkload.
func (o Options) sequence() ([]*taskgraph.Graph, error) {
	wl, err := o.sweepWorkload()
	return wl.Seq, err
}

// executor returns the scenario executor the sweep-backed experiments
// share, honouring the Parallel, Store, RequireStored and StoreWait
// options.
func (o Options) executor() sweep.Executor {
	return sweep.Executor{
		Workers: o.Parallel, Store: o.Store,
		RequireStored: o.RequireStored, StoreWait: o.StoreWait,
	}
}

// sweepWorkload wraps the Fig. 9 inputs as a sweep workload with a key
// memo. Within one Render or Populate call every experiment gets the
// same value for one (Seed, Apps), drawn and hashed once.
func (o Options) sweepWorkload() (sweep.Workload, error) {
	if o.draws == nil {
		return o.draw()
	}
	o.draws.mu.Lock()
	defer o.draws.mu.Unlock()
	id := drawID{o.Seed, o.Apps}
	d, ok := o.draws.m[id]
	if !ok {
		d.wl, d.err = o.draw()
		o.draws.m[id] = d
	}
	return d.wl, d.err
}

func (o Options) draw() (sweep.Workload, error) {
	pool, seq, err := o.Workload()
	if err != nil {
		return sweep.Workload{}, err
	}
	return sweep.Workload{Pool: pool, Seq: seq}.WithKeyMemo(), nil
}

// draws memoizes sweepWorkload per (Seed, Apps) for one call.
type draws struct {
	mu sync.Mutex
	m  map[drawID]drawn
}

type drawID struct {
	seed int64
	apps int
}

type drawn struct {
	wl  sweep.Workload
	err error
}

// withDraws returns o with a fresh draw memo.
func (o Options) withDraws() Options {
	o.draws = &draws{m: make(map[drawID]drawn)}
	return o
}

// Runner produces one experiment report.
type Runner func(opt Options, w io.Writer) error

// GridsFunc declares the cacheable sweep Specs an experiment executes,
// so shard mode can populate a shared result store without rendering
// the report (see Populate). Experiments with no persistable grid —
// worked examples, counted tables, trace-consuming sweeps — have none.
type GridsFunc func(opt Options) ([]sweep.Spec, error)

// Experiment couples an identifier with its runner and, for the grid
// experiments, the Specs shard runs populate.
type Experiment struct {
	ID    string
	Title string
	Run   Runner
	Grids GridsFunc
}

// All returns every experiment in report order.
func All() []Experiment {
	return []Experiment{
		{"fig2", "Fig. 2 — motivational example: LRU vs LFD vs Local LFD", Fig2, nil},
		{"fig3", "Fig. 3 — motivational example: skip events", Fig3, nil},
		{"fig7", "Fig. 7 — design-time mobility calculation", Fig7, nil},
		{"fig9a", "Fig. 9a — reuse rates vs number of RUs (ASAP)", Fig9A, Fig9AGrids},
		{"fig9b", "Fig. 9b — reuse rates with skip events", Fig9B, Fig9BGrids},
		{"fig9c", "Fig. 9c — remaining reconfiguration overhead", Fig9C, Fig9CGrids},
		{"table1", "Table I — run-time delays of the replacement policies", TableI, nil},
		{"table2", "Table II — impact of the replacement module", TableII, nil},
		{"ablation", "Ablation — window sweep, skip contribution, extra baselines", Ablation, AblationGrids},
		{"energy", "Extension — reconfiguration energy and bus traffic", EnergyExperiment, nil},
		{"sensitivity", "Extension — latency sensitivity and heterogeneous latencies", Sensitivity, SensitivityGrids},
		{"prefetch", "Extension — cross-graph prefetch", Prefetch, PrefetchGrids},
		{"variance", "Extension — seed robustness of the headline claim", Variance, VarianceGrids},
	}
}

// Render writes each experiment's report to w, in order. The
// experiments share one draw of each (Seed, Apps) workload, and so one
// key memo; both end with the call.
func Render(opt Options, exps []Experiment, w io.Writer) error {
	opt = opt.withDraws()
	for _, e := range exps {
		if err := e.Run(opt, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// PopulateStats summarizes one shard populate pass across the selected
// experiments' grids.
type PopulateStats struct {
	// Grids is the number of sweep Specs executed.
	Grids int
	// Scenarios is the total grid size across those Specs.
	Scenarios int
	// Ran is how many scenarios this shard owns (store hits among them
	// still count as ran — nothing was skipped by the shard).
	Ran int
	// SkippedByShard is how many scenarios other shards own.
	SkippedByShard int
	// Resumed is how many owned scenarios per-grid checkpoints skipped
	// (work a previous attempt at this shard already stored); they are
	// counted in Ran too, like store hits.
	Resumed int
}

// Populate executes one shard's slice of every selected experiment's
// cacheable grids into opt.Store, rendering nothing: the sweep results
// stream through a discarding collector and the store write-through is
// the only output. After every shard 0..N-1 has run against one shared
// store, a RequireStored suite run (-merge-report) renders the full
// report byte-identical to a single-process run. Experiments without a
// GridsFunc are skipped — they either have no grid or cannot be
// persisted (traces) and run live at merge time instead.
func Populate(opt Options, exps []Experiment, shard sweep.Shard) (PopulateStats, error) {
	var st PopulateStats
	if opt.Store == nil {
		return st, fmt.Errorf("experiments: Populate needs a result store")
	}
	// The grids share one draw of each workload, as in Render.
	opt = opt.withDraws()
	// Populate always simulates what the store lacks; RequireStored is
	// the merge side of the protocol, never the populate side.
	ex := sweep.Executor{Workers: opt.Parallel, Store: opt.Store}
	for _, e := range exps {
		if e.Grids == nil {
			continue
		}
		specs, err := e.Grids(opt)
		if err != nil {
			return st, fmt.Errorf("%s: %w", e.ID, err)
		}
		for gi, sp := range specs {
			sp.Shard = shard
			// One checkpoint per (shard, grid): a re-leased shard skips
			// the spec indices a previous attempt already stored.
			name := fmt.Sprintf("shard-%04d/%s-grid%d", shard.Index, e.ID, gi)
			resumed, err := ex.Populate(sp, opt.Checkpoints, name, opt.Fingerprint)
			st.Resumed += resumed
			if err != nil {
				return st, fmt.Errorf("%s: %w", e.ID, err)
			}
			n := sp.Size()
			st.Grids++
			st.Scenarios += n
			st.Ran += shard.SizeOf(n)
			st.SkippedByShard += n - shard.SizeOf(n)
		}
	}
	return st, nil
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists experiment identifiers.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// check prints a measured-vs-expected line with a PASS/FAIL verdict; exact
// anchors from the paper's worked examples use it.
func check(w io.Writer, what string, got, want any) bool {
	ok := fmt.Sprint(got) == fmt.Sprint(want)
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  %-44s measured %-10v paper %-10v %s\n", what, got, want, verdict)
	return ok
}

// section prints a report header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
