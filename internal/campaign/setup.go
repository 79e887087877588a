package campaign

import (
	"time"

	"repro/internal/coord"
	"repro/internal/resultstore"
	"repro/internal/sweep"
)

// Setup is the resolved campaign flag set both CLIs share (see
// internal/cliflags.CampaignFlags.Resolve): backends opened, mode
// exclusions enforced, one struct Drive dispatches on.
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
}

// Coord is the resolved -coord* flag group.
type Coord struct {
	// Backend is the opened pool-state backend.
	Backend coord.Backend
	// Shards/Workers are -coord-shards and -coord-workers.
	Shards, Workers int
	// LeaseTTL/Heartbeat tune the lease protocol (0 = adopt/derive).
	LeaseTTL, Heartbeat time.Duration
}
