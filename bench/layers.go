package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// recorder is one traced unit's view of the tracer plus the counters the
// decorators feed. Every method is a no-op on a nil recorder, which is
// what untraced units pass.
type recorder struct {
	tr    *tracer
	trace int
	phase int
	stats *layerStats
}

func newRecorder(tr *tracer, trace int) *recorder {
	r := &recorder{tr: tr, trace: trace, stats: &layerStats{
		sims:   make(map[string]*simStat),
		store:  make(map[string]*opStat),
		coord:  make(map[string]*opStat),
		serve:  make(map[string]int64),
		stored: make(map[string]int),
		mob:    mobility.Stats(),
	}}
	runtime.ReadMemStats(&r.stats.mem)
	return r
}

// startPhase opens the unit's phase span: the fallback parent of every
// span whose goroutine has none open.
func (r *recorder) startPhase(name string) {
	if r != nil {
		r.phase = r.tr.begin(r.trace, layerBench, name, 0)
	}
}

func (r *recorder) begin(layer, name string, fallback int) int {
	if r == nil {
		return 0
	}
	if fallback == 0 {
		fallback = r.phase
	}
	return r.tr.begin(r.trace, layer, name, fallback)
}

func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	return r.tr.end(id)
}

// scenario records one live-simulated scenario: its simulation figures
// and a manager span lasting its measured Elapsed, ending when it was
// observed (delivered or stored).
func (r *recorder) scenario(name string, elapsed time.Duration, events uint64, observed time.Time, fallback int) {
	r.stats.sim(policyFamily(name), elapsed, events)
	if fallback == 0 {
		fallback = r.phase
	}
	r.tr.add(r.trace, layerManager, name, fallback, elapsed, observed)
}

// finishUnit closes the phase span and takes the unit's runtime and
// mobility-cache counters, then times the design-time phase cold (not
// part of the unit's wall time).
func (r *recorder) finishUnit(wall time.Duration) {
	r.end(r.phase)
	s := r.stats
	s.wall = wall
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.allocBytes = mem.TotalAlloc - s.mem.TotalAlloc
	s.gcCycles = mem.NumGC - s.mem.NumGC
	s.gcPause = time.Duration(mem.PauseTotalNs - s.mem.PauseTotalNs)
	now := mobility.Stats()
	s.mobComputes = now.Computes - s.mob.Computes
	s.mobHits = now.Hits - s.mob.Hits
	s.mobMisses = now.Misses - s.mob.Misses
	s.mobCompute = timeDesignPhase()
}

// timeDesignPhase computes the multimedia pool's mobility tables for
// 4..10 units from an empty cache with no persistent tier: the cold cost
// of the design-time phase every workload's grids depend on.
func timeDesignPhase() time.Duration {
	prev := mobility.SetStore(nil)
	defer mobility.SetStore(prev)
	mobility.FlushCache()
	pool := workload.Multimedia()
	start := time.Now()
	for r := 4; r <= 10; r++ {
		if _, _, err := mobility.CachedAll(pool, r, workload.PaperLatency()); err != nil {
			return 0
		}
	}
	return time.Since(start)
}

// policyFamily classifies a scenario by the name the executor gives it.
func policyFamily(name string) string {
	switch {
	case strings.Contains(name, "prefetch"):
		return "other"
	case strings.Contains(name, "Local LFD") && strings.Contains(name, "Skip"):
		return "locallfd_skip"
	case strings.Contains(name, "Local LFD"):
		return "locallfd"
	case strings.Contains(name, "LFD"):
		return "lfd"
	case strings.Contains(name, "LRU"):
		return "lru"
	}
	return "other"
}

type simStat struct {
	n      int
	ns     int64
	events uint64
	ms     []float64
}

// opStat accumulates one operation kind of a layer.
type opStat struct {
	n     int64
	ns    int64
	bytes int64
	ms    []float64
}

func (o *opStat) add(d time.Duration, bytes int) {
	o.n++
	o.ns += int64(d)
	o.bytes += int64(bytes)
	o.ms = append(o.ms, float64(d)/1e6)
}

// layerStats are the counters of one traced unit.
type layerStats struct {
	wall    time.Duration
	collect time.Duration // executor-driven phase
	workers int
	mem     runtime.MemStats
	mob     mobility.CacheStats

	mu sync.Mutex

	sims           map[string]*simStat
	idealBaselines int
	policies       []*tracedPolicy

	mobComputes, mobHits, mobMisses int64
	mobCompute                      time.Duration
	artLoads, artStores             int64
	artLoadNS                       int64

	store      map[string]*opStat
	storeBusy  time.Duration // store ops of the executor being measured
	loadAbsent int64
	handles    []*resultstore.Store
	stored     map[string]int // result key → entries written

	coord       map[string]*opStat
	checkpoints opStat
	run         coord.RunStats
	claimWait   time.Duration
	drainLag    time.Duration

	attempts, nowAttempts int64
	rtt                   []float64

	serve             map[string]int64
	requests          int64
	bytesIn, bytesOut int64
	status4xx         int64
	status5xx         int64
	serveMS           []float64
	serveNS           int64

	rows, reportBytes int64
	writeNS           int64

	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (s *layerStats) sim(family string, elapsed time.Duration, events uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.sims[family]
	if st == nil {
		st = &simStat{}
		s.sims[family] = st
	}
	st.n++
	st.ns += int64(elapsed)
	st.events += events
	st.ms = append(st.ms, float64(elapsed)/1e6)
}

func (s *layerStats) op(m map[string]*opStat, verb string, d time.Duration, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := m[verb]
	if st == nil {
		st = &opStat{}
		m[verb] = st
	}
	st.add(d, bytes)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	return quantile(append([]float64(nil), ms...), q)
}

// values computes every per-layer metric of the unit: the declared ones
// (PerLayer) plus the times printed only in the per-layer table.
func (s *layerStats) values() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := make(map[string]float64)
	wall := s.wall.Seconds()

	var simN int
	var simNS int64
	var events uint64
	var simMS []float64
	for _, fam := range []string{"lru", "locallfd", "locallfd_skip", "lfd", "other"} {
		st := s.sims[fam]
		if st == nil {
			st = &simStat{}
		}
		if fam != "other" {
			v["manager.ns_per_event."+fam] = ratio(float64(st.ns), float64(st.events))
		}
		simN += st.n
		simNS += st.ns
		events += st.events
		simMS = append(simMS, st.ms...)
	}
	v["manager.scenarios"] = float64(simN)
	v["manager.events"] = float64(events)
	v["manager.events_per_s"] = ratio(float64(events), wall)
	v["manager.ns_per_event"] = ratio(float64(simNS), float64(events))
	v["manager.busy_s"] = float64(simNS) / 1e9
	v["manager.scenario_p50_ms"] = pct(simMS, 0.5)
	v["manager.scenario_samples"] = float64(len(simMS))
	if len(simMS) >= 100 {
		v["manager.scenario_p90_ms"] = pct(simMS, 0.9)
	}

	var decisions, lookahead, selectNS int64
	for _, p := range s.policies {
		decisions += p.decisions
		lookahead += p.lookahead
		selectNS += p.ns
	}
	v["policy.decisions"] = float64(decisions)
	v["policy.lookahead_ids"] = float64(lookahead)
	v["policy.ns_per_decision"] = ratio(float64(selectNS), float64(decisions))
	v["policy.select_frac"] = ratio(float64(selectNS), float64(simNS))
	v["policy.select_s"] = float64(selectNS) / 1e9

	v["mobility.computes"] = float64(s.mobComputes)
	v["mobility.hits"] = float64(s.mobHits)
	v["mobility.misses"] = float64(s.mobMisses)
	v["mobility.compute_s"] = s.mobCompute.Seconds()
	v["artifact.loads"] = float64(s.artLoads)
	v["artifact.stores"] = float64(s.artStores)
	v["artifact.load_s"] = float64(s.artLoadNS) / 1e9

	v["sweep.collect_s"] = s.collect.Seconds()
	v["sweep.slack_s"] = float64(s.workers)*s.collect.Seconds() - float64(simNS)/1e9 - s.storeBusy.Seconds()
	v["sweep.ideal_baselines"] = float64(s.idealBaselines)

	var storeNS int64
	for _, verb := range []string{"load", "store", "visit", "delete"} {
		st := s.store[verb]
		if st == nil {
			st = &opStat{}
		}
		v["resultstore."+verb+".count"] = float64(st.n)
		v["resultstore."+verb+"_s"] = float64(st.ns) / 1e9
		storeNS += st.ns
		if verb == "load" || verb == "store" {
			v["resultstore."+verb+"_bytes"] = float64(st.bytes)
		}
	}
	load := s.store["load"]
	if load == nil {
		load = &opStat{}
	}
	v["resultstore.busy_s"] = float64(storeNS) / 1e9
	v["resultstore.load_p50_ms"] = pct(load.ms, 0.5)
	v["resultstore.load_p90_ms"] = pct(load.ms, 0.9)
	v["resultstore.load_absent"] = float64(s.loadAbsent)
	var hits, misses int64
	for _, h := range s.handles {
		hh, mm, _ := h.Stats()
		hits += hh
		misses += mm
	}
	v["resultstore.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	v["resultstore.probe_waste"] = ratio(float64(s.loadAbsent), float64(load.n))
	// Live scenarios over distinct ones: from the result entries written
	// when the grid runs through a store, else every live scenario of
	// the grid is distinct.
	simulated, distinct := simN, simN
	if len(s.stored) > 0 {
		simulated, distinct = 0, len(s.stored)
		for _, n := range s.stored {
			simulated += n
		}
	}
	v["experiments.resimulation_ratio"] = ratio(float64(simulated), float64(distinct))

	var coordNS int64
	var rtt []float64
	for _, verb := range []string{"get", "put", "create", "list", "now"} {
		st := s.coord[verb]
		if st == nil {
			st = &opStat{}
		}
		v["coord."+verb+".count"] = float64(st.n)
		if verb != "now" {
			coordNS += st.ns
			rtt = append(rtt, st.ms...)
		}
	}
	v["coord.busy_s"] = float64(coordNS) / 1e9
	v["coord.rtt_p50_ms"] = pct(rtt, 0.5)
	v["coord.rtt_p90_ms"] = pct(rtt, 0.9)
	v["coord.checkpoint.count"] = float64(s.checkpoints.n)
	v["coord.checkpoint_s"] = float64(s.checkpoints.ns) / 1e9
	v["coord.shards_completed"] = float64(s.run.Completed)
	v["coord.recovered"] = float64(s.run.Recovered)
	v["coord.lost_leases"] = float64(s.run.LostLeases)
	v["coord.claim_wait_s"] = s.claimWait.Seconds()
	v["coord.drain_lag_s"] = s.drainLag.Seconds()

	logical := int64(0)
	for _, m := range []map[string]*opStat{s.store, s.coord} {
		for verb, st := range m {
			if verb != "now" {
				logical += st.n
			}
		}
	}
	v["backendurl.attempts"] = float64(s.attempts)
	v["backendurl.retries"] = float64(max(0, s.attempts-s.nowAttempts-logical))
	if s.attempts > 0 {
		v["backendurl.rtt_p50_ms"] = pct(s.rtt, 0.5)
		v["backendurl.wire_p50_ms"] = pct(s.rtt, 0.5) - pct(s.serveMS, 0.5)
	}

	v["serve.requests"] = float64(s.requests)
	for _, c := range serveClasses {
		v["serve."+c+".count"] = float64(s.serve[c])
	}
	v["serve.bytes_in"] = float64(s.bytesIn)
	v["serve.bytes_out"] = float64(s.bytesOut)
	v["serve.status_4xx"] = float64(s.status4xx)
	v["serve.status_5xx"] = float64(s.status5xx)
	v["serve.req_p50_ms"] = pct(s.serveMS, 0.5)
	v["serve.req_p90_ms"] = pct(s.serveMS, 0.9)
	v["serve.busy_s"] = float64(s.serveNS) / 1e9

	v["campaign.rows"] = float64(s.rows)
	v["campaign.report_bytes"] = float64(s.reportBytes)
	v["campaign.write_s"] = float64(s.writeNS) / 1e9

	v["runtime.alloc_mb"] = float64(s.allocBytes) / (1 << 20)
	v["runtime.gc_cycles"] = float64(s.gcCycles)
	v["runtime.gc_pause_ms"] = float64(s.gcPause) / 1e6
	return v
}

// layerMetrics reports the median of each per-layer metric over the
// traced units, and the tracing overhead: the traced units' median wall
// time against the untraced units', in reference seconds as wall_s is.
func layerMetrics(traced, plain []unit, tr *tracer) map[string]Value {
	all := medianValues(traced)
	var tw, pw []float64
	for _, u := range traced {
		tw = append(tw, u.refWall())
	}
	for _, u := range plain {
		pw = append(pw, u.refWall())
	}
	all["trace.overhead_frac"] = median(tw)/median(pw) - 1
	var spans []float64
	for _, n := range tr.spansPerTrace() {
		spans = append(spans, float64(n))
	}
	all["trace.spans"] = median(spans)
	out := make(map[string]Value, len(PerLayer))
	for _, m := range PerLayer {
		out[m.Name] = Value{Value: all[m.Name], Unit: m.Unit}
	}
	return out
}

func medianValues(traced []unit) map[string]float64 {
	samples := make(map[string][]float64)
	for _, u := range traced {
		for k, x := range u.layers.values() {
			samples[k] = append(samples[k], x)
		}
		samples["sweep.first_row_s"] = append(samples["sweep.first_row_s"], u.firstRow.Seconds())
	}
	out := make(map[string]float64, len(samples))
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out
}

// printLayers writes the per-layer table: every layer metric's median
// over the traced units, then each layer's span count, total and self
// time across the whole traced run.
func printLayers(w io.Writer, name string, traced []unit, tr *tracer) {
	vals := medianValues(traced)
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "per-layer metrics, %s (median of %d traced units):\n", name, len(traced))
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %14.6g\n", k, vals[k])
	}
	lt := tr.selfTimes()
	// The span-less layers: policy decisions are timed inside the
	// scenarios, so their time comes off the manager's self time; the
	// design-time phase is timed cold after each traced unit; garbage
	// collection pauses stop every layer at once and overlap them all.
	var sel, mob, gc time.Duration
	for _, u := range traced {
		s := u.layers
		for _, p := range s.policies {
			sel += time.Duration(p.ns)
		}
		mob += s.mobCompute
		gc += s.gcPause
	}
	if m := lt[layerManager]; m != nil {
		m.self -= sel
	}
	lt[layerPolicy] = &layerTime{total: sel, self: sel}
	lt[layerMobility] = &layerTime{total: mob, self: mob}
	lt[layerRuntime] = &layerTime{total: gc, self: gc}
	fmt.Fprintf(w, "self time by layer, %s (all traced units):\n", name)
	fmt.Fprintf(w, "  %-12s %8s %12s %12s\n", "layer", "spans", "total_s", "self_s")
	for _, l := range layers {
		t := lt[l]
		if t == nil {
			t = &layerTime{}
		}
		fmt.Fprintf(w, "  %-12s %8d %12.6f %12.6f\n", l, t.spans, t.total.Seconds(), t.self.Seconds())
	}
}

// --- decorators -----------------------------------------------------------

// tracePolicies wraps every policy axis value's constructor so each
// scenario's policy instance counts its decisions and times SelectVictim.
func (r *recorder) tracePolicies(in []sweep.PolicySpec) []sweep.PolicySpec {
	out := make([]sweep.PolicySpec, len(in))
	for i, p := range in {
		p, newPolicy := p, p.New
		p.New = func() (policy.Policy, error) {
			inner, err := newPolicy()
			if err != nil {
				return nil, err
			}
			tp := &tracedPolicy{Policy: inner}
			r.stats.mu.Lock()
			r.stats.policies = append(r.stats.policies, tp)
			r.stats.mu.Unlock()
			return tp, nil
		}
		out[i] = p
	}
	return out
}

// tracedPolicy counts one scenario's replacement decisions. One instance
// serves one scenario on one goroutine, so its counters need no lock;
// they are read after the sweep has returned.
type tracedPolicy struct {
	policy.Policy
	decisions, lookahead, ns int64
}

func (p *tracedPolicy) SelectVictim(req policy.Request, cands []policy.Candidate) policy.Decision {
	start := time.Now()
	d := p.Policy.SelectVictim(req, cands)
	p.ns += int64(time.Since(start))
	p.decisions++
	p.lookahead += int64(len(req.Lookahead))
	return d
}

// Reset forwards to the wrapped policy so a reused runner rewinds it.
func (p *tracedPolicy) Reset() { policy.Reset(p.Policy) }

// storeBackend times a resultstore.Backend. parent is the fallback span
// for operations issued from goroutines with no span open; measured marks
// the store of the executor whose capacity sweep.slack_s accounts.
type storeBackend struct {
	inner    resultstore.Backend
	rec      *recorder
	parent   *int
	measured bool
}

// traceStore returns a Store over a timed copy of s's backend, counted in
// the unit's hit ratio.
func (r *recorder) traceStore(s *resultstore.Store, parent *int, measured bool) *resultstore.Store {
	ts := resultstore.FromBackend(&storeBackend{inner: s.Backend(), rec: r, parent: parent, measured: measured})
	r.stats.mu.Lock()
	r.stats.handles = append(r.stats.handles, ts)
	r.stats.mu.Unlock()
	return ts
}

func (b *storeBackend) op(verb string, start time.Time, sp, bytes int) {
	d := b.rec.end(sp)
	if d == 0 {
		d = time.Since(start)
	}
	b.rec.stats.op(b.rec.stats.store, verb, d, bytes)
	if b.measured {
		b.rec.stats.mu.Lock()
		b.rec.stats.storeBusy += d
		b.rec.stats.mu.Unlock()
	}
}

func (b *storeBackend) Load(key string) ([]byte, bool) {
	start, sp := time.Now(), b.rec.begin(layerResultstore, "load", *b.parent)
	data, ok := b.inner.Load(key)
	b.op("load", start, sp, len(data))
	if !ok {
		b.rec.stats.mu.Lock()
		b.rec.stats.loadAbsent++
		b.rec.stats.mu.Unlock()
	}
	return data, ok
}

// storedEntry is the part of a result entry the traced run reads back:
// a live simulation's measured time, events and name.
type storedEntry struct {
	Scenario  string `json:"scenario"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Run       *struct {
		Events uint64 `json:"events"`
	} `json:"run"`
}

func (b *storeBackend) Store(key string, data []byte) error {
	start, sp := time.Now(), b.rec.begin(layerResultstore, "store", *b.parent)
	err := b.inner.Store(key, data)
	b.op("store", start, sp, len(data))
	var e storedEntry
	if err == nil && json.Unmarshal(data, &e) == nil && e.Run != nil {
		b.rec.stats.mu.Lock()
		b.rec.stats.stored[key]++
		b.rec.stats.mu.Unlock()
		b.rec.scenario(e.Scenario, time.Duration(e.ElapsedNS), e.Run.Events, time.Now(), *b.parent)
	}
	return err
}

func (b *storeBackend) Visit(fn func(key string, data []byte) error) (int, error) {
	start, sp := time.Now(), b.rec.begin(layerResultstore, "visit", *b.parent)
	junk, err := b.inner.Visit(fn)
	b.op("visit", start, sp, 0)
	return junk, err
}

func (b *storeBackend) Delete(key string) error {
	start, sp := time.Now(), b.rec.begin(layerResultstore, "delete", *b.parent)
	err := b.inner.Delete(key)
	b.op("delete", start, sp, 0)
	return err
}

func (b *storeBackend) Location() string { return b.inner.Location() }

// coordBackend times a coord.Backend; keys under checkpoint/ are counted
// as checkpoint traffic too.
type coordBackend struct {
	inner  coord.Backend
	rec    *recorder
	parent *int
}

func (b *coordBackend) op(verb, key string, start time.Time, sp int) {
	d := b.rec.end(sp)
	if d == 0 {
		d = time.Since(start)
	}
	b.rec.stats.op(b.rec.stats.coord, verb, d, 0)
	if strings.HasPrefix(key, "checkpoint/") {
		b.rec.stats.mu.Lock()
		b.rec.stats.checkpoints.add(d, 0)
		b.rec.stats.mu.Unlock()
	}
}

func (b *coordBackend) Get(key string) ([]byte, error) {
	start, sp := time.Now(), b.rec.begin(layerCoord, "get", *b.parent)
	data, err := b.inner.Get(key)
	b.op("get", key, start, sp)
	return data, err
}

func (b *coordBackend) Put(key string, data []byte) error {
	start, sp := time.Now(), b.rec.begin(layerCoord, "put", *b.parent)
	err := b.inner.Put(key, data)
	b.op("put", key, start, sp)
	return err
}

func (b *coordBackend) Create(key string, data []byte) error {
	start, sp := time.Now(), b.rec.begin(layerCoord, "create", *b.parent)
	err := b.inner.Create(key, data)
	b.op("create", key, start, sp)
	return err
}

func (b *coordBackend) List(dir string) ([]string, error) {
	start, sp := time.Now(), b.rec.begin(layerCoord, "list", *b.parent)
	names, err := b.inner.List(dir)
	b.op("list", dir, start, sp)
	return names, err
}

// Now is called inside the lease protocol's loops; it is counted and
// timed but gets no span.
func (b *coordBackend) Now() time.Time {
	start := time.Now()
	t := b.inner.Now()
	b.rec.stats.op(b.rec.stats.coord, "now", time.Since(start), 0)
	return t
}

func (b *coordBackend) Location() string { return b.inner.Location() }

// tableStore times the mobility cache's persistent tier (the artifact
// space of the result store).
type tableStore struct {
	inner  mobility.TableStore
	rec    *recorder
	parent *int
}

func (t *tableStore) LoadTable(g *taskgraph.Graph, rus int, latency simtime.Time) (*mobility.Table, bool) {
	start, sp := time.Now(), t.rec.begin(layerArtifact, "load", *t.parent)
	tab, ok := t.inner.LoadTable(g, rus, latency)
	t.rec.end(sp)
	t.rec.stats.mu.Lock()
	t.rec.stats.artLoads++
	t.rec.stats.artLoadNS += int64(time.Since(start))
	t.rec.stats.mu.Unlock()
	return tab, ok
}

func (t *tableStore) StoreTable(tab *mobility.Table) error {
	sp := t.rec.begin(layerArtifact, "store", *t.parent)
	err := t.inner.StoreTable(tab)
	t.rec.end(sp)
	t.rec.stats.mu.Lock()
	t.rec.stats.artStores++
	t.rec.stats.mu.Unlock()
	return err
}

// roundTripper times every http attempt of the wire client, from sending
// the request to closing the response body, and tells the server which
// span sent it.
type roundTripper struct {
	inner http.RoundTripper
	rec   *recorder
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	sp := rt.rec.begin(layerBackendurl, req.Method+" "+serveClass(req), 0)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, fmt.Sprint(sp))
	resp, err := rt.inner.RoundTrip(out)
	done := func() {
		rt.rec.end(sp)
		s := rt.rec.stats
		s.mu.Lock()
		s.attempts++
		if strings.HasSuffix(req.URL.Path, "/now") {
			s.nowAttempts++
		}
		s.rtt = append(s.rtt, float64(time.Since(start))/1e6)
		s.mu.Unlock()
	}
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &bodyCloser{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type bodyCloser struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *bodyCloser) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// serveClasses are the endpoint classes the server's requests are
// counted under.
var serveClasses = []string{"store_get", "store_put", "coord_get", "coord_put", "coord_create", "coord_list", "now", "other"}

// serveClass maps a request onto its endpoint class.
func serveClass(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.Contains(p, "/store/o/") && r.Method == http.MethodGet:
		return "store_get"
	case strings.Contains(p, "/store/o/") && r.Method == http.MethodPut:
		return "store_put"
	case strings.Contains(p, "/coord/k/") && r.Method == http.MethodGet:
		return "coord_get"
	case strings.Contains(p, "/coord/k/") && r.Method == http.MethodPut:
		return "coord_put"
	case strings.Contains(p, "/coord/k/") && r.Method == http.MethodPost:
		return "coord_create"
	case strings.HasSuffix(p, "/coord/list"):
		return "coord_list"
	case strings.HasSuffix(p, "/now"):
		return "now"
	}
	return "other"
}

// handler times the server's handler per request: endpoint class, status,
// bytes in and out, and a span parented to the client attempt.
func (r *recorder) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var parent int
		fmt.Sscan(req.Header.Get(spanHeader), &parent)
		start := time.Now()
		sp := r.begin(layerServe, serveClass(req), parent)
		body := &countReader{ReadCloser: req.Body}
		req.Body = body
		cw := &countWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(cw, req)
		r.end(sp)
		d := time.Since(start)
		s := r.stats
		s.mu.Lock()
		defer s.mu.Unlock()
		s.requests++
		s.serve[serveClass(req)]++
		s.bytesIn += body.n
		s.bytesOut += cw.n
		switch {
		case cw.status >= 500:
			s.status5xx++
		case cw.status >= 400:
			s.status4xx++
		}
		s.serveMS = append(s.serveMS, float64(d)/1e6)
		s.serveNS += int64(d)
	})
}

type countReader struct {
	io.ReadCloser
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (c *countWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// reportWriter is the report's io.Writer: it keeps the bytes for the
// correctness gate, notes when the first table row was written (the line
// after the first table's dashed separator), and, when traced, counts
// lines and times writes.
type reportWriter struct {
	buf      strings.Builder
	start    time.Time
	firstRow time.Duration
	line     []byte
	sepSeen  bool
	rec      *recorder
}

func (w *reportWriter) Write(p []byte) (int, error) {
	var start time.Time
	if w.rec != nil {
		start = time.Now()
	}
	w.buf.Write(p)
	if w.firstRow == 0 {
		for _, c := range p {
			if c != '\n' {
				w.line = append(w.line, c)
				continue
			}
			if w.sepSeen {
				w.firstRow = time.Since(w.start)
				break
			}
			w.sepSeen = isSeparator(w.line)
			w.line = w.line[:0]
		}
	}
	if w.rec != nil {
		s := w.rec.stats
		s.mu.Lock()
		s.rows += int64(bytes.Count(p, []byte{'\n'}))
		s.reportBytes += int64(len(p))
		s.writeNS += int64(time.Since(start))
		s.mu.Unlock()
	}
	return len(p), nil
}

// isSeparator reports whether a line is a table's dashed rule.
func isSeparator(line []byte) bool {
	dash := false
	for _, c := range line {
		switch c {
		case '-':
			dash = true
		case ' ':
		default:
			return false
		}
	}
	return dash
}
