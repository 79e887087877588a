// Package bench is the repository's benchmark: four workloads that drive
// the simulator, the sweep executor, the result store, the coordinator
// and the http control plane end to end, each checked for correct output,
// plus a traced run that measures every layer from outside by timing the
// calls the benchmark makes into its public functions and interfaces.
//
// A run sets up its workload and runs one untimed warm-up unit that fixes
// the reference output, then repeats the workload's unit of work until the
// time budget is spent, timing a set-up between units now and then (the
// median is setup_s) and a calibration kernel before every unit. See
// README.md for the workloads, the metrics and how to read them, and
// cmd/rtrbench for the command.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Metric declares one reported metric. BENCHMARK.json at the repository
// root carries the same declarations; the tests keep the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
}

// EndToEnd are the metrics every untraced run reports, on every workload.
// Times are medians over the run's units (set-ups for setup_s) in
// reference seconds (see calib.go). The bounds are set from the spreads of
// ten runs of one commit: 20% for times, 15% for peak memory and the
// largest, 25%, for set-up, whose median of a few set-ups is noisier.
var EndToEnd = []Metric{
	{"wall_s", "s", "lower", 0.20},
	{"cpu_s", "s", "lower", 0.20},
	{"scenarios_per_s", "1/s", "higher", 0.20},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer are the metrics every traced run reports, on every workload. A
// layer a workload does not reach reports zero counts; times that only
// some workloads produce (latency percentiles, busy seconds) are printed
// with the per-layer table and kept out of this list, so no declared time
// reads zero on every run of a workload.
var PerLayer = []Metric{
	{"manager.scenarios", "count", "lower", 0},
	{"manager.events", "count", "lower", 0},
	{"manager.events_per_s", "events/s", "higher", 0},
	{"manager.ns_per_event", "ns/event", "lower", 0},
	{"manager.ns_per_event.lru", "ns/event", "lower", 0},
	{"manager.ns_per_event.locallfd", "ns/event", "lower", 0},
	{"manager.ns_per_event.locallfd_skip", "ns/event", "lower", 0},
	{"manager.ns_per_event.lfd", "ns/event", "lower", 0},
	{"policy.decisions", "count", "lower", 0},
	{"policy.lookahead_ids", "count", "lower", 0},
	{"policy.ns_per_decision", "ns/decision", "lower", 0},
	{"policy.select_frac", "ratio", "lower", 0},
	{"mobility.computes", "count", "lower", 0},
	{"mobility.hits", "count", "higher", 0},
	{"mobility.misses", "count", "lower", 0},
	{"mobility.compute_s", "s", "lower", 0},
	{"artifact.loads", "count", "lower", 0},
	{"artifact.stores", "count", "lower", 0},
	{"sweep.collect_s", "s", "lower", 0},
	{"sweep.first_row_s", "s", "lower", 0},
	{"sweep.slack_s", "s", "lower", 0},
	{"sweep.ideal_baselines", "count", "lower", 0},
	{"resultstore.load.count", "count", "lower", 0},
	{"resultstore.store.count", "count", "lower", 0},
	{"resultstore.visit.count", "count", "lower", 0},
	{"resultstore.delete.count", "count", "lower", 0},
	{"resultstore.load_bytes", "bytes", "lower", 0},
	{"resultstore.store_bytes", "bytes", "lower", 0},
	{"resultstore.load_absent", "count", "lower", 0},
	{"resultstore.hit_ratio", "ratio", "higher", 0},
	{"resultstore.probe_waste", "ratio", "lower", 0},
	{"coord.get.count", "count", "lower", 0},
	{"coord.put.count", "count", "lower", 0},
	{"coord.create.count", "count", "lower", 0},
	{"coord.list.count", "count", "lower", 0},
	{"coord.now.count", "count", "lower", 0},
	{"coord.checkpoint.count", "count", "lower", 0},
	{"coord.shards_completed", "count", "higher", 0},
	{"coord.recovered", "count", "lower", 0},
	{"coord.lost_leases", "count", "lower", 0},
	{"backendurl.attempts", "count", "lower", 0},
	{"backendurl.retries", "count", "lower", 0},
	{"serve.requests", "count", "lower", 0},
	{"serve.store_get.count", "count", "lower", 0},
	{"serve.store_put.count", "count", "lower", 0},
	{"serve.coord_get.count", "count", "lower", 0},
	{"serve.coord_put.count", "count", "lower", 0},
	{"serve.coord_create.count", "count", "lower", 0},
	{"serve.coord_list.count", "count", "lower", 0},
	{"serve.now.count", "count", "lower", 0},
	{"serve.other.count", "count", "lower", 0},
	{"serve.bytes_in", "bytes", "lower", 0},
	{"serve.bytes_out", "bytes", "lower", 0},
	{"serve.status_4xx", "count", "lower", 0},
	{"serve.status_5xx", "count", "lower", 0},
	{"campaign.rows", "count", "lower", 0},
	{"campaign.report_bytes", "bytes", "lower", 0},
	{"experiments.resimulation_ratio", "ratio", "lower", 0},
	{"runtime.alloc_mb", "MiB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// Workloads names the benchmark's workloads in the order a full run
// executes them.
var Workloads = []string{"fig9-window", "fig9-lfd", "store-warm-fs", "campaign-http"}

// Scale selects the workload sizes: "full" is what BENCHMARK.json runs,
// "smoke" the tiny sizes the package tests run.
type Scale string

const (
	Full  Scale = "full"
	Smoke Scale = "smoke"
)

// Options configures one run of one workload.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the measuring budget: units repeat until it is spent
	// (and at least the minimum unit count has run).
	Seconds float64
	// Trace alternates untraced and traced units and reports the
	// per-layer metrics instead of the end-to-end ones.
	Trace bool
	// TraceDir receives trace-<workload>.json from a traced run.
	TraceDir string
	Scale    Scale
	// Log receives the human-readable report (stderr in the command).
	Log io.Writer
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one run, printed as the last line of the
// command's standard output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// unit is what one execution of a workload's unit of work measured.
type unit struct {
	wall, cpu time.Duration
	firstRow  time.Duration
	scenarios int
	// failed counts operations that failed but did not fail the unit:
	// lost leases and re-leased shards.
	failed int
	layers *layerStats // traced units only
	// slow is the host's slowdown around the unit: the mean of the kernel
	// times on either side of it ÷ refKernel (see calib.go).
	slow float64
}

// refWall and refCPU are the unit's times in reference seconds.
func (u unit) refWall() float64 { return u.wall.Seconds() / u.slow }
func (u unit) refCPU() float64  { return u.cpu.Seconds() / u.slow }

// runner is one benchmark workload. setup builds the inputs and may be
// called several times; run executes one unit of work on the inputs of
// the last setup, checking its output against the reference the first
// run recorded. rec is nil for untraced units.
type runner interface {
	setup() error
	run(rec *recorder) (unit, error)
	close()
}

// A run times set-up between its units, whenever the timed set-ups so far
// took at most setupShare of the run, and at least minSetups times; it
// reports the median. Sampling across the whole run rather than in one
// burst matters on a shared host: the cost of a short, allocation-heavy
// set-up follows the neighbours' memory traffic, which drifts over
// seconds, so a burst of samples taken within milliseconds agrees with
// itself but not with the next run's.
const (
	minSetups  = 5
	setupShare = 0.25
)

// minUnits is the least number of timed units a run executes, however
// short its time budget.
const minUnits = 3

// Procs is the GOMAXPROCS every workload runs with. With one P the
// workloads keep their concurrency (two executor workers, two claim loops,
// client and server goroutines) but run on one core at a time. On a shared
// two-vCPU host the second vCPU comes and goes, which makes two-core
// timings bimodal; one core is steady, and a result measured on one core
// reproduces on any machine.
const Procs = 1

// Run executes one run of one workload. A wrong output returns an error
// along with a Result whose Correct is false.
func Run(opt Options) (Result, error) {
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	if opt.Scale == "" {
		opt.Scale = Full
	}
	w, err := newRunner(opt)
	if err != nil {
		return Result{}, err
	}
	defer w.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(Procs))

	res := Result{Correct: true}
	fail := func(err error) (Result, error) {
		res.Correct = false
		res.Failed++
		if res.Attempted == 0 {
			res.Attempted = 1
		}
		return res, fmt.Errorf("%s: %w", opt.Workload, err)
	}

	// The first set-up and the warm-up unit fill caches and record the
	// reference output; the set-ups timed after them run in a warm
	// process, as the units do.
	if err := w.setup(); err != nil {
		return fail(fmt.Errorf("setup: %w", err))
	}
	if _, err := w.run(nil); err != nil {
		return fail(err)
	}
	// The peak resident set is read before the calibration kernel first
	// runs, so it is the workload's own: its set-up and a unit of work,
	// which every later unit repeats.
	rss := peakRSSMiB()

	var tr *tracer
	if opt.Trace {
		tr = newTracer()
	}
	// Iteration i runs kernel i, maybe a timed set-up, and unit i; one more
	// kernel closes the run. Both the set-up and the unit of iteration i
	// are calibrated by kernels i and i+1.
	var units []unit
	var kernels []time.Duration
	type setupTime struct {
		d    time.Duration
		iter int
	}
	var setups []setupTime
	var setupTotal time.Duration
	var nTraced int
	start := time.Now()
	for i := 0; ; i++ {
		spent := time.Since(start).Seconds() >= opt.Seconds
		if len(units) >= minUnits && len(setups) >= minSetups &&
			(!opt.Trace || nTraced >= 2) && spent {
			break
		}
		runtime.GC()
		kernels = append(kernels, kernel())
		if (spent && len(setups) < minSetups) || setupTotal.Seconds() <= setupShare*time.Since(start).Seconds() {
			runtime.GC()
			t := time.Now()
			if err := w.setup(); err != nil {
				return fail(fmt.Errorf("setup: %w", err))
			}
			setups = append(setups, setupTime{time.Since(t), i})
			setupTotal += setups[len(setups)-1].d
		}
		var rec *recorder
		// Every unit starts from a collected heap, so no unit pays for the
		// garbage of the one before.
		runtime.GC()
		if opt.Trace && i%2 == 1 {
			rec = newRecorder(tr, nTraced+1)
			nTraced++
		}
		u, err := w.run(rec)
		res.Attempted += int64(u.scenarios)
		res.Failed += int64(u.failed)
		if err != nil {
			return fail(err)
		}
		if rec != nil {
			u.layers = rec.stats
		}
		units = append(units, u)
	}
	runtime.GC()
	kernels = append(kernels, kernel())
	slow := func(i int) float64 {
		return (kernels[i] + kernels[i+1]).Seconds() / 2 / refKernel.Seconds()
	}
	var plain, traced []unit
	for i, u := range units {
		u.slow = slow(i)
		if u.layers != nil {
			traced = append(traced, u)
		} else {
			plain = append(plain, u)
		}
	}
	refSetups := make([]float64, len(setups))
	for j, s := range setups {
		refSetups[j] = s.d.Seconds() / slow(s.iter)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}

	if opt.Trace {
		res.Metrics = layerMetrics(traced, plain, tr)
		printLayers(opt.Log, opt.Workload, traced, tr)
		if opt.TraceDir != "" {
			path, err := tr.writeChrome(opt.TraceDir, opt.Workload)
			if err != nil {
				return res, err
			}
			fmt.Fprintf(opt.Log, "trace: %s (%d spans)\n", path, len(tr.spans))
		}
		return res, nil
	}
	res.Metrics = endToEndMetrics(plain, refSetups, rss)
	fmt.Fprintf(opt.Log, "%s: %d timed units, measured wall s / host slowdown:", opt.Workload, len(plain))
	for _, u := range plain {
		fmt.Fprintf(opt.Log, " %.4f/%.2f", u.wall.Seconds(), u.slow)
	}
	fmt.Fprintln(opt.Log)
	return res, nil
}

func newRunner(opt Options) (runner, error) {
	sz, ok := sizes[opt.Scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (want full or smoke)", opt.Scale)
	}
	switch opt.Workload {
	case "fig9-window":
		return newFig9Window(opt.Seed, sz), nil
	case "fig9-lfd":
		return newFig9LFD(opt.Seed, sz), nil
	case "store-warm-fs":
		return newStoreWarm(opt.Seed, sz), nil
	case "campaign-http":
		return newCampaignHTTP(opt.Seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", opt.Workload, Workloads)
}

// endToEndMetrics reports the medians over the run's units and set-ups, in
// reference seconds (see calib.go), and the peak resident set.
func endToEndMetrics(units []unit, setups []float64, rss float64) map[string]Value {
	var wall, cpu, rate []float64
	for _, u := range units {
		wall = append(wall, u.refWall())
		cpu = append(cpu, u.refCPU())
		rate = append(rate, float64(u.scenarios)/u.refWall())
	}
	vals := map[string]float64{
		"wall_s":          median(wall),
		"cpu_s":           median(cpu),
		"scenarios_per_s": median(rate),
		"peak_rss_mb":     rss,
		"setup_s":         median(setups),
	}
	out := make(map[string]Value, len(EndToEnd))
	for _, m := range EndToEnd {
		out[m.Name] = Value{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

// median of xs (NaN for none); xs is reordered.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for none); xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// clock measures the wall and CPU time of one timed phase.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock { return clock{wall: time.Now(), cpu: cpuTime()} }

func (c clock) stop() (wall, cpu time.Duration) {
	return time.Since(c.wall), cpuTime() - c.cpu
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kib := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kib /= 1024 // darwin reports bytes
	}
	return kib / 1024
}
