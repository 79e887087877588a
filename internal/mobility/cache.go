package mobility

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// The design-time phase is by far the most expensive computation in a
// sweep — hundreds of full schedules per (template, RUs, latency) triple —
// and its result is a pure function of that triple. Two cache tiers stand
// between a caller and Compute:
//
//   process map → persistent store → compute
//
// The process-wide map memoizes tables for the life of the process so
// every System, sweep scenario and experiment shares one table per
// triple. The optional persistent tier (a TableStore, normally the
// result store's artifact space — see internal/artifact) survives the
// process: a cold process, or a freshly re-leased shard worker on
// another host, loads the table a previous process computed instead of
// recomputing it. Tables are keyed by the graph's content fingerprint,
// not its pointer, so a template re-parsed from JSON in another process
// (or simply rebuilt in this one) still hits.
//
// Concurrency: the first caller of a key loads-or-computes; concurrent
// callers of the same key block until that finishes (single-flight), so
// a parallel sweep over N scenarios still runs each design-time phase —
// including the store probe — exactly once.

type cacheKey struct {
	fp      string // taskgraph.(*Graph).Fingerprint()
	rus     int
	latency simtime.Time
}

type cacheEntry struct {
	done chan struct{}
	t    *Table
	err  error
}

var cache = struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
}{m: make(map[cacheKey]*cacheEntry)}

// TableStore is the persistent second cache tier: load a previously
// stored table for a triple, or store a freshly computed one. Both ends
// are best-effort — a load that fails (absent, damaged, stale) reports
// !ok and the caller recomputes; a store error is swallowed here because
// persistence is an optimization, never correctness. Implementations
// must be safe for concurrent use. internal/artifact adapts
// resultstore.Store to this interface; mobility deliberately does not
// import either.
type TableStore interface {
	LoadTable(g *taskgraph.Graph, rus int, latency simtime.Time) (*Table, bool)
	StoreTable(t *Table) error
}

var tier struct {
	mu sync.RWMutex
	ts TableStore
}

// SetStore installs ts as the process-wide persistent tier (nil
// uninstalls it) and returns the previous one, so callers can restore.
func SetStore(ts TableStore) TableStore {
	tier.mu.Lock()
	defer tier.mu.Unlock()
	prev := tier.ts
	tier.ts = ts
	return prev
}

func currentStore() TableStore {
	tier.mu.RLock()
	defer tier.mu.RUnlock()
	return tier.ts
}

var stats struct {
	hits        atomic.Int64
	misses      atomic.Int64
	computes    atomic.Int64
	storeHits   atomic.Int64
	storeMisses atomic.Int64
	storeWrites atomic.Int64
}

// CacheStats is a snapshot of the design-time cache counters: process-map
// lookups (Hits/Misses), actual Compute runs, and persistent-tier
// traffic. Misses = StoreHits + StoreMisses' successful computes + failed
// computes; a warm cross-process run shows Computes == 0.
type CacheStats struct {
	Tables                              int
	Hits, Misses, Computes              int64
	StoreHits, StoreMisses, StoreWrites int64
}

// Stats returns the current counter snapshot.
func Stats() CacheStats {
	return CacheStats{
		Tables:      CacheLen(),
		Hits:        stats.hits.Load(),
		Misses:      stats.misses.Load(),
		Computes:    stats.computes.Load(),
		StoreHits:   stats.storeHits.Load(),
		StoreMisses: stats.storeMisses.Load(),
		StoreWrites: stats.storeWrites.Load(),
	}
}

// ResetStats zeroes the counters (the CLIs call it at the start of a run
// so the digest describes that run alone; tables already cached stay).
func ResetStats() {
	stats.hits.Store(0)
	stats.misses.Store(0)
	stats.computes.Store(0)
	stats.storeHits.Store(0)
	stats.storeMisses.Store(0)
	stats.storeWrites.Store(0)
}

// DigestLine renders the counters as the one-line stderr digest the CLIs
// print next to the result-store summary, or "" when the cache saw no
// traffic (so runs that never enter a design-time phase stay silent).
// The CI artifact-reuse gate greps this format — keep it stable.
func DigestLine() string {
	st := Stats()
	if st.Hits+st.Misses == 0 {
		return ""
	}
	tierPart := "off"
	if currentStore() != nil {
		tierPart = fmt.Sprintf("%d hits, %d misses, %d stored",
			st.StoreHits, st.StoreMisses, st.StoreWrites)
	}
	return fmt.Sprintf("design-time cache: %d tables, %d hits, %d misses, %d computes; artifact tier: %s",
		st.Tables, st.Hits, st.Misses, st.Computes, tierPart)
}

// Cached returns the design-time table for (g, rus, latency), looking it
// up through both cache tiers and computing only on a full miss. The
// returned table is always bound to g: when the cached copy was computed
// for a different (content-identical) *Graph, a shallow rebound copy is
// returned so Lookup keyed by template pointer keeps working.
func Cached(g *taskgraph.Graph, rus int, latency simtime.Time) (*Table, error) {
	if g == nil {
		return nil, fmt.Errorf("mobility: nil graph")
	}
	key := cacheKey{fp: g.Fingerprint(), rus: rus, latency: latency}
	cache.mu.Lock()
	e, ok := cache.m[key]
	if !ok {
		e = &cacheEntry{done: make(chan struct{})}
		cache.m[key] = e
		cache.mu.Unlock()
		stats.misses.Add(1)
		e.t, e.err = loadOrCompute(g, rus, latency)
		if e.err != nil {
			// Do not memoize failures: a later caller may retry after
			// fixing the input (and errors here mean a broken graph).
			cache.mu.Lock()
			delete(cache.m, key)
			cache.mu.Unlock()
		}
		close(e.done)
		return rebind(e.t, g), e.err
	}
	cache.mu.Unlock()
	stats.hits.Add(1)
	<-e.done
	return rebind(e.t, g), e.err
}

// loadOrCompute is the single-flighted slow path behind a process-map
// miss: probe the persistent tier, fall back to Compute, and write the
// fresh table back best-effort.
func loadOrCompute(g *taskgraph.Graph, rus int, latency simtime.Time) (*Table, error) {
	ts := currentStore()
	if ts != nil {
		if t, ok := ts.LoadTable(g, rus, latency); ok {
			stats.storeHits.Add(1)
			return t, nil
		}
		stats.storeMisses.Add(1)
	}
	stats.computes.Add(1)
	t, err := Compute(g, rus, latency)
	if err != nil {
		return nil, err
	}
	if ts != nil {
		// Best-effort persistence: a full or read-only store costs the
		// next process a recompute, never this one its table.
		if err := ts.StoreTable(t); err == nil {
			stats.storeWrites.Add(1)
		}
	}
	return t, nil
}

// rebind returns t bound to g: the cached table itself when the pointers
// already agree, otherwise a shallow copy sharing the (immutable) values.
// Content-fingerprint keying means a hit may have been computed for a
// different pointer to the same template.
func rebind(t *Table, g *taskgraph.Graph) *Table {
	if t == nil || t.Graph == g {
		return t
	}
	c := *t
	c.Graph = g
	return &c
}

// CachedAll runs Cached for every distinct template in graphs and
// returns a ready-to-use lookup plus the tables (in first-appearance
// order): one table per template, loaded or computed at most once per
// process. Each returned table is bound to the pointer that requested
// it, so the Lookup covers every template in graphs even when two
// pointers share content.
func CachedAll(graphs []*taskgraph.Graph, rus int, latency simtime.Time) (func(*taskgraph.Graph) []int, []*Table, error) {
	seen := make(map[*taskgraph.Graph]bool)
	var tables []*Table
	for _, g := range graphs {
		if seen[g] {
			continue
		}
		seen[g] = true
		t, err := Cached(g, rus, latency)
		if err != nil {
			return nil, nil, err
		}
		tables = append(tables, t)
	}
	return Lookup(tables...), tables, nil
}

// CacheLen reports how many tables the process-wide cache holds.
func CacheLen() int {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return len(cache.m)
}

// FlushCache empties the process-wide cache (tests; or to release tables
// for template pools that will never be used again). The persistent tier
// and the counters are unaffected.
func FlushCache() {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	cache.m = make(map[cacheKey]*cacheEntry)
}
