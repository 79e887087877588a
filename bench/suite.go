package bench

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/backendurl"
	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/mobility"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// suiteExperiments are the report both suite workloads render: every
// experiment whose report is a pure function of its stored grids.
// Sensitivity is left out because its heterogeneous-latency half has no
// store key and always simulates live, which would put simulation into
// store-warm-fs, the workload meant to have none.
var suiteExperiments = []string{"fig9a", "fig9b", "fig9c", "prefetch", "variance"}

var suiteRUs = []int{4, 5, 6, 7, 8, 9, 10}

func suiteOptions(seed int64, apps int) experiments.Options {
	return experiments.Options{
		Seed: seed, Apps: apps, RUs: suiteRUs,
		Latency: workload.PaperLatency(), Parallel: gridWorkers,
	}
}

func selectSuite() []experiments.Experiment {
	sel, err := campaign.SelectExperiments(suiteExperiments)
	if err != nil {
		panic(err) // the ids above are constants
	}
	return sel
}

// storeWarm renders the suite from a populated fs store: every scenario
// and design-time table is served, nothing is simulated.
type storeWarm struct {
	seed int64
	apps int
	sel  []experiments.Experiment
	// dirs are the stores the set-ups populated. Each cold render records
	// its own measured scenario times, which steer the warm renders'
	// dispatch order (and so the first row's time); units take the
	// stores in turn so a run does not hinge on one set-up's timings.
	dirs []string
	next int
	cold string // the first set-up's cold report
}

func newStoreWarm(seed int64, sz size) *storeWarm {
	return &storeWarm{seed: seed, apps: sz.suiteApps, sel: selectSuite()}
}

// setup renders the suite cold into a fresh fs store with the artifact
// tier on, which populates every grid scenario and mobility table.
func (s *storeWarm) setup() error {
	dir, err := os.MkdirTemp("", "rtrbench-store-")
	if err != nil {
		return err
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	restore := artifact.Install(st)
	defer restore()
	mobility.FlushCache()
	opt := suiteOptions(s.seed, s.apps)
	opt.Store = st
	out := &reportWriter{start: time.Now()}
	if err := campaign.RenderSuite(opt, s.sel, out); err != nil {
		return err
	}
	report := out.buf.String()
	if s.cold == "" {
		if err := checkGoldenReport(s.seed, s.apps, report); err != nil {
			return err
		}
	} else if err := diffReport(s.cold, report, "the first cold render"); err != nil {
		return err
	}
	s.dirs, s.cold = append(s.dirs, dir), report
	return nil
}

// run renders the suite warm the way a fresh CLI process would: a new
// store handle, an empty mobility cache, a new artifact tier.
func (s *storeWarm) run(rec *recorder) (unit, error) {
	var u unit
	var render int
	clk := startClock()
	rec.startPhase("store-warm-fs")
	out := &reportWriter{start: clk.wall, rec: rec}
	st, err := resultstore.Open(s.dirs[s.next%len(s.dirs)])
	s.next++
	if err != nil {
		return u, err
	}
	var ts mobility.TableStore = artifact.NewTableStore(st)
	if rec != nil {
		st = rec.traceStore(st, &render, true)
		ts = &tableStore{inner: artifact.NewTableStore(st), rec: rec, parent: &render}
	}
	mobility.FlushCache()
	prev := mobility.SetStore(ts)
	defer mobility.SetStore(prev)
	mob := mobility.Stats()

	opt := suiteOptions(s.seed, s.apps)
	opt.Store = st
	render = rec.begin(layerCampaign, "RenderSuite", 0)
	err = campaign.RenderSuite(opt, s.sel, out)
	rec.end(render)
	u.wall, u.cpu = clk.stop()
	if err != nil {
		return u, err
	}
	hits, misses, _ := st.Stats()
	computes := mobility.Stats().Computes - mob.Computes
	u.firstRow, u.scenarios = out.firstRow, int(hits)
	if rec != nil {
		rec.stats.collect = u.wall
		rec.stats.workers = gridWorkers
		rec.finishUnit(u.wall)
	}
	if misses != 0 {
		return u, fmt.Errorf("correctness: warm render missed the store %d times", misses)
	}
	if computes != 0 {
		return u, fmt.Errorf("correctness: warm render computed %d mobility tables", computes)
	}
	return u, diffReport(s.cold, out.buf.String(), "the cold render")
}

func (s *storeWarm) close() {
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

// diffReport names the first line where got departs from want.
func diffReport(want, got, against string) error {
	if want == got {
		return nil
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return ""
	}
	return fmt.Errorf("correctness: report differs from %s at line %d:\n got: %q\nwant: %q",
		against, i+1, line(g), line(w))
}

// campaignHTTP runs one campaign per unit against an in-process control
// plane: two coordinated claim loops populate the store over http while
// a watch merge renders the report from it, call for call what
// rtrrepro's -coord and -coord … -merge-report -watch modes do.
type campaignHTTP struct {
	seed   int64
	apps   int
	shards int
	sel    []experiments.Experiment
	ref    string
}

func newCampaignHTTP(seed int64, sz size) *campaignHTTP {
	return &campaignHTTP{seed: seed, apps: sz.suiteApps, shards: sz.shards, sel: selectSuite()}
}

// Lease timing of the pool. The heartbeat is also the idle claim loop's
// and the watch merge's poll interval, so it quantizes the unit's wall
// and first-row times; 100 ms keeps that step small.
const (
	leaseTTL  = 3 * time.Second
	heartbeat = 100 * time.Millisecond
	// claimLoops is the number of coord.RunWorkers claim loops.
	claimLoops = 2
)

// service is one campaign's server and clients.
type service struct {
	srv        *http.Server
	served     chan error
	tr         *http.Transport
	popStore   *resultstore.Store
	mergeStore *resultstore.Store
	cb         coord.Backend
	cfg        coord.Config
	pool       *coord.Coordinator
	fp         string

	// Fallback parent spans of the traced clients.
	popSpan, mergeSpan, coordSpan int
}

// setup starts a control plane and opens a campaign's pool, then shuts
// it down: the set-up every unit repeats before its timed phase.
func (c *campaignHTTP) setup() error {
	s, err := c.prepare(nil)
	if s != nil {
		s.close()
	}
	return err
}

// prepare starts an in-memory control plane on a loopback port, creates
// a campaign, opens the three wire clients (populate store, merge store,
// coordinator) and initialises the pool. The clients share one transport
// holding at most one connection per core.
func (c *campaignHTTP) prepare(rec *recorder) (*service, error) {
	srv, err := serve.New(serve.Config{State: "mem:"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if rec != nil {
		h = rec.handler(h)
	}
	s := &service{
		srv:    &http.Server{Handler: h},
		served: make(chan error, 1),
		tr:     &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
	}
	go func() { s.served <- s.srv.Serve(ln) }()

	camp, err := srv.Create(wire.Spec{
		V: wire.APIVersion, Kind: "suite", Seed: c.seed, Apps: c.apps, RUs: suiteRUs,
		LatencyMS: workload.PaperLatency().Ms(), Only: suiteExperiments,
	})
	if err != nil {
		return s, err
	}
	base := "http://" + ln.Addr().String() + "/c/" + camp.ID()
	var rt http.RoundTripper = s.tr
	if rec != nil {
		rt = &roundTripper{inner: s.tr, rec: rec}
	}
	client := func() backendurl.HTTPOptions {
		return backendurl.HTTPOptions{Client: &http.Client{Transport: rt}}
	}
	if s.popStore, err = resultstore.OpenURL("store", base, client()); err != nil {
		return s, err
	}
	if s.mergeStore, err = resultstore.OpenURL("store", base, client()); err != nil {
		return s, err
	}
	if s.cb, err = coord.OpenBackend("coord", base, client()); err != nil {
		return s, err
	}
	if rec != nil {
		s.popStore = rec.traceStore(s.popStore, &s.popSpan, true)
		s.mergeStore = rec.traceStore(s.mergeStore, &s.mergeSpan, false)
		s.cb = &coordBackend{inner: s.cb, rec: rec, parent: &s.coordSpan}
	}
	s.fp = fingerprint(c.seed, c.apps, c.sel)
	s.cfg = coord.Config{
		Backend: s.cb, Shards: c.shards, LeaseTTL: leaseTTL, Heartbeat: heartbeat, Fingerprint: s.fp,
	}
	s.pool, err = coord.Open(s.cfg)
	return s, err
}

func (s *service) close() {
	s.srv.Close()
	<-s.served
	s.tr.CloseIdleConnections()
}

// fingerprint is rtrrepro's pool fingerprint for the suite.
func fingerprint(seed int64, apps int, sel []experiments.Experiment) string {
	h := resultstore.NewHash()
	h.String("cli", "rtrrepro")
	h.Int("seed", seed)
	h.Int("apps", int64(apps))
	for _, r := range suiteRUs {
		h.Int("ru", int64(r))
	}
	h.Int("latency", int64(workload.PaperLatency()))
	for _, e := range sel {
		h.String("experiment", e.ID)
	}
	return h.Sum()
}

func (c *campaignHTTP) run(rec *recorder) (unit, error) {
	var u unit
	s, err := c.prepare(rec)
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return u, err
	}
	clk := startClock()
	rec.startPhase("campaign-http")
	out := &reportWriter{start: clk.wall, rec: rec}
	var ts mobility.TableStore = artifact.NewTableStore(s.popStore)
	if rec != nil {
		ts = &tableStore{inner: ts, rec: rec, parent: &s.popSpan}
	}
	mobility.FlushCache()
	prev := mobility.SetStore(ts)
	defer mobility.SetStore(prev)

	merged := make(chan error, 1)
	go func() { merged <- c.merge(s, rec, out) }()
	st, popErr := c.populate(s, rec)
	mergeErr := <-merged
	u.wall, u.cpu = clk.stop()
	u.failed = st.Recovered + st.LostLeases
	if err := errors.Join(popErr, mergeErr); err != nil {
		return u, err
	}
	hits, misses, _ := s.mergeStore.Stats()
	u.firstRow, u.scenarios = out.firstRow, int(hits)
	if rec != nil {
		rec.stats.workers = claimLoops
		rec.stats.run = st
		rec.finishUnit(u.wall)
	}
	if misses != 0 {
		return u, fmt.Errorf("correctness: watch merge missed the store %d times", misses)
	}
	report := out.buf.String()
	if c.ref == "" {
		if err := checkGoldenReport(c.seed, c.apps, report); err != nil {
			return u, err
		}
		c.ref = report
		return u, nil
	}
	return u, diffReport(c.ref, report, "the first merge")
}

// populate is the worker side: claim loops running the checkpointed
// shard populate, as rtrrepro -coord runs it.
func (c *campaignHTTP) populate(s *service, rec *recorder) (coord.RunStats, error) {
	opt := suiteOptions(c.seed, c.apps)
	opt.Parallel = 1
	opt.Store = s.popStore
	opt.Checkpoints = coord.NewCheckpointStore(s.cb)
	opt.Fingerprint = s.fp

	var mu sync.Mutex
	var inShards time.Duration
	var lastShard time.Time
	start := time.Now()
	s.popSpan = rec.begin(layerCoord, "RunWorkers", 0)
	st, err := s.pool.RunWorkers(claimLoops, func(r coord.ShardRun) error {
		begun := time.Now()
		sp := rec.begin(layerCoord, fmt.Sprintf("shard %d", r.Shard), s.popSpan)
		pp := rec.begin(layerExperiments, "Populate", sp)
		_, err := experiments.Populate(opt, c.sel, sweep.Shard{Index: r.Shard, Count: r.Count})
		rec.end(pp)
		rec.end(sp)
		mu.Lock()
		inShards += time.Since(begun)
		lastShard = time.Now()
		mu.Unlock()
		return err
	})
	rec.end(s.popSpan)
	if rec != nil {
		wall := time.Since(start)
		rec.stats.collect = wall
		rec.stats.claimWait = claimLoops*wall - inShards
		rec.stats.drainLag = time.Since(lastShard)
	}
	return st, err
}

// merge is the watch-merge side, as rtrrepro -coord … -merge-report
// -watch runs it: gate on the pool, render rows as the store fills
// through the merge checkpoint writer, then wait for the drain.
func (c *campaignHTTP) merge(s *service, rec *recorder, out io.Writer) error {
	s.mergeSpan = rec.begin(layerCampaign, "RenderSuite", 0)
	defer rec.end(s.mergeSpan)
	_, pw, poll, err := coord.MergeGate(s.cfg, true, io.Discard)
	if err != nil {
		return err
	}
	defer pw.Stop()
	cks := coord.NewCheckpointStore(s.cb)
	w := &campaign.CheckpointedWriter{
		W: out, Resume: campaign.LoadMergeOffset(cks, s.fp),
		Save: func(total int64) { campaign.SaveMergeOffset(cks, s.fp, total) },
	}
	opt := suiteOptions(c.seed, c.apps)
	opt.Store = s.mergeStore
	opt.RequireStored = true
	opt.StoreWait = &sweep.StoreWait{Poll: poll, Done: pw.Done}
	if err := campaign.RenderSuite(opt, c.sel, w); err != nil {
		return err
	}
	if _, err := pw.Wait(); err != nil {
		return err
	}
	campaign.SaveMergeOffset(cks, s.fp, 0)
	return nil
}

func (c *campaignHTTP) close() {}
