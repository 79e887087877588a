package campaign

import (
	"io"
	"sync"
	"time"

	"repro/internal/backendurl"
	"repro/internal/coord"
	"repro/internal/resultstore"
	"repro/internal/sweep"
)

// Setup is the resolved campaign flag set both CLIs share (see
// internal/cliflags.CampaignFlags.Resolve): backends opened, mode
// exclusions enforced, one struct the mains dispatch on.
type Setup struct {
	// Store is the opened result store, nil when unset or disabled.
	Store *resultstore.Store
	// StoreGC: garbage-collect the store and exit.
	StoreGC bool
	// CoordStatus: print the pool's per-shard state and exit.
	CoordStatus bool
	// Shard is the manual -shard i/N slice; HasShard says it was set.
	Shard    sweep.Shard
	HasShard bool
	// Merge renders purely from the store; Watch additionally blocks
	// on the coordinator pool, rendering rows as they land.
	Merge, Watch bool
	// Parallel is the scenario executor's worker count (0 = NumCPU).
	Parallel int
	// Coord carries the coordinator pool settings, nil without -coord.
	Coord *Coord
	// HTTP is the wire-client configuration applied to any http(s)
	// backend locator (token, per-request timeout).
	HTTP backendurl.HTTPOptions
}

// Coord is the resolved -coord* flag group.
type Coord struct {
	// Backend is the opened pool-state backend.
	Backend coord.Backend
	// Locator is the raw -coord value, for operator-facing messages.
	Locator string
	// Shards/Workers are -coord-shards and -coord-workers.
	Shards, Workers int
	// LeaseTTL/Heartbeat tune the lease protocol (0 = adopt/derive).
	LeaseTTL, Heartbeat time.Duration
}

// Config builds the coord.Config for this pool with the sweep
// fingerprint the caller computed from its full parameter set.
func (c *Coord) Config(fingerprint string) coord.Config {
	return coord.Config{
		Backend: c.Backend, Shards: c.Shards,
		LeaseTTL: c.LeaseTTL, Heartbeat: c.Heartbeat,
		Fingerprint: fingerprint,
	}
}

// StatusReport renders the -coord-status table (adopting the pool's
// persisted constants).
func (s *Setup) StatusReport() (string, error) {
	c, err := coord.Open(coord.Config{
		Backend: s.Coord.Backend, LeaseTTL: s.Coord.LeaseTTL, Heartbeat: s.Coord.Heartbeat,
	})
	if err != nil {
		return "", err
	}
	st, err := c.Status()
	if err != nil {
		return "", err
	}
	return st.Render(c.Dir()), nil
}

// LockedWriter serializes writes to W. The CLIs wrap their stderr in one
// because several goroutines report to it at once: the -coord-workers
// claim loops and a watch merge's pool watch print progress lines while
// the main goroutine prints its own.
type LockedWriter struct {
	mu sync.Mutex
	W  io.Writer
}

// Write writes p to W under the lock.
func (l *LockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.W.Write(p)
}
