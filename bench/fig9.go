package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/manager"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// size fixes one scale's workload dimensions.
type size struct {
	windowSeeds, windowApps int // fig9-window: seeds × apps
	lfdApps                 int // fig9-lfd: apps of its one seed
	suiteApps               int // store-warm-fs and campaign-http
	shards                  int // campaign-http coordinator shards
}

// sizes are frozen: a change here changes what every recorded number
// means, so it is a change to the benchmark, never part of a change that
// claims a gain.
var sizes = map[Scale]size{
	Full:  {windowSeeds: 8, windowApps: 2000, lfdApps: 4000, suiteApps: 2000, shards: 8},
	Smoke: {windowSeeds: 1, windowApps: 200, lfdApps: 200, suiteApps: 200, shards: 2},
}

// gridWorkers is the executor's worker count in every workload: the
// container the benchmark was calibrated on has two cores.
const gridWorkers = 2

// scenarioStats are the simulated statistics the fig9 correctness gate
// digests, one record per scenario in spec order.
type scenarioStats struct {
	Makespan                           simtime.Time
	Executed, Reused, Loads, Evictions int
	Skips, Graphs                      int
	Events                             uint64
}

func statsOf(r *sweep.Result) scenarioStats {
	run := r.Run
	return scenarioStats{
		Makespan: run.Makespan, Executed: run.Executed, Reused: run.Reused,
		Loads: run.Loads, Evictions: run.Evictions, Skips: run.Skips,
		Graphs: run.Graphs, Events: run.Events,
	}
}

func (s scenarioStats) appendTo(b []byte) []byte {
	for _, v := range []uint64{uint64(s.Makespan), uint64(s.Executed), uint64(s.Reused),
		uint64(s.Loads), uint64(s.Evictions), uint64(s.Skips), uint64(s.Graphs), s.Events} {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

// scenarioDigest is the short per-scenario digest the golden files hold.
func (s scenarioStats) digest() string {
	sum := sha256.Sum256(s.appendTo(nil))
	return hex.EncodeToString(sum[:8])
}

// gridDigest is the SHA-256 of every scenario's statistics in spec order.
func gridDigest(stats []scenarioStats) string {
	h := sha256.New()
	var buf []byte
	for _, s := range stats {
		buf = s.appendTo(buf[:0])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fig9 is a Fig. 9-style policy grid run by sweep.Executor.Collect with
// no store: fig9-window and fig9-lfd differ only in their axes.
type fig9 struct {
	name   string
	seed   int64
	seeds  int
	apps   int
	rus    []int
	series func() []sweep.PolicySpec

	spec  sweep.Spec
	names []string
	ref   []scenarioStats
}

func newFig9Window(seed int64, sz size) *fig9 {
	return &fig9{
		name: "fig9-window", seed: seed, seeds: sz.windowSeeds, apps: sz.windowApps,
		rus: []int{4, 5, 6, 7, 8, 9, 10},
		series: func() []sweep.PolicySpec {
			return []sweep.PolicySpec{
				sweep.Fixed("LRU", policy.NewLRU()),
				sweep.LocalLFD(1, false),
				sweep.LocalLFD(2, false),
				sweep.LocalLFD(4, false),
				sweep.LocalLFD(1, true),
			}
		},
	}
}

// newFig9LFD runs its unit counts in descending order, so the cheap LRU
// scenarios at high unit counts come first in spec order and the costly
// full-future LFD scenarios last.
func newFig9LFD(seed int64, sz size) *fig9 {
	return &fig9{
		name: "fig9-lfd", seed: seed, seeds: 1, apps: sz.lfdApps,
		rus: []int{10, 9, 8, 7, 6, 5, 4},
		series: func() []sweep.PolicySpec {
			return []sweep.PolicySpec{
				sweep.Fixed("LRU", policy.NewLRU()),
				sweep.Fixed("LFD", policy.NewLFD()),
			}
		},
	}
}

// setup draws the input sequences, expands the grid and runs the
// design-time phase for every (template, RUs) the grid's skip-events
// policies need, from an empty mobility cache.
func (f *fig9) setup() error {
	lat := workload.PaperLatency()
	spec := sweep.Spec{RUs: f.rus, Latencies: []simtime.Time{lat}, Policies: f.series()}
	for i := 0; i < f.seeds; i++ {
		o := experiments.Options{Seed: f.seed + int64(i), Apps: f.apps}
		pool, seq, err := o.Workload()
		if err != nil {
			return err
		}
		spec.Workloads = append(spec.Workloads, sweep.Workload{
			Label: fmt.Sprintf("seed %d", o.Seed), Pool: pool, Seq: seq,
		})
	}
	scenarios, err := spec.Expand()
	if err != nil {
		return err
	}
	f.names = f.names[:0]
	for _, sc := range scenarios {
		f.names = append(f.names, sc.Name())
	}
	mobility.FlushCache()
	for _, p := range spec.Policies {
		if !p.Skip {
			continue
		}
		for _, r := range f.rus {
			if _, _, err := mobility.CachedAll(spec.Workloads[0].Pool, r, lat); err != nil {
				return err
			}
		}
		break
	}
	f.spec = spec
	return nil
}

func (f *fig9) run(rec *recorder) (unit, error) {
	u, stats, err := f.collect(rec)
	if err != nil {
		return u, err
	}
	return u, f.check(stats)
}

// collect runs the grid once and returns every scenario's statistics in
// spec order.
func (f *fig9) collect(rec *recorder) (unit, []scenarioStats, error) {
	spec := f.spec
	if rec != nil {
		spec.Policies = rec.tracePolicies(spec.Policies)
	}
	col := &gridCollector{rec: rec}
	var u unit
	clk := startClock()
	col.start = clk.wall
	rec.startPhase(f.name)
	sp := rec.begin(layerSweep, "Collect", 0)
	err := sweep.Executor{Workers: gridWorkers}.Collect(spec, col)
	rec.end(sp)
	u.wall, u.cpu = clk.stop()
	if err != nil {
		return u, nil, err
	}
	u.firstRow = col.firstRow
	u.scenarios = len(col.stats)
	if rec != nil {
		rec.stats.collect = u.wall
		rec.stats.workers = gridWorkers
		rec.stats.idealBaselines = len(col.ideals)
		rec.finishUnit(u.wall)
	}
	return u, col.stats, nil
}

// check compares a unit's statistics with the first unit's, and that one
// with the golden digests when the seed has them.
func (f *fig9) check(stats []scenarioStats) error {
	if f.ref == nil {
		if err := checkGoldenGrid(f.name, f.seed, f.apps, stats, f.names); err != nil {
			return err
		}
		f.ref = stats
		return nil
	}
	return diffGrid(f.ref, stats, f.names, "the first unit")
}

// diffGrid names the first scenario whose statistics differ.
func diffGrid(want, got []scenarioStats, names []string, against string) error {
	if len(want) != len(got) {
		return fmt.Errorf("correctness: %d scenarios, %s had %d", len(got), against, len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("correctness: scenario %d (%s) differs from %s: got %+v, want %+v",
				i, names[i], against, got[i], want[i])
		}
	}
	return nil
}

func (f *fig9) close() {}

// gridCollector records every delivered result's statistics in spec
// order, the time the first one arrived, and, when traced, the
// per-scenario simulation figures and one span per live scenario.
type gridCollector struct {
	rec      *recorder
	start    time.Time
	firstRow time.Duration
	stats    []scenarioStats
	ideals   map[*manager.Result]bool
}

func (c *gridCollector) Collect(r *sweep.Result) error {
	now := time.Now()
	if c.stats == nil {
		c.firstRow = now.Sub(c.start)
	}
	c.stats = append(c.stats, statsOf(r))
	if c.rec != nil && r.Elapsed > 0 {
		if c.ideals == nil {
			c.ideals = make(map[*manager.Result]bool)
		}
		c.ideals[r.Ideal] = true
		c.rec.scenario(r.Scenario.Name(), r.Elapsed, r.Run.Events, now, 0)
	}
	return nil
}
