// Package cliflags registers the campaign flag set shared by
// cmd/rtrrepro and cmd/rtrsim — the -store/-coord/-shard/-merge
// surface plus the wire-client flags for http(s) locators, which
// cmd/rtrmob shares — and resolves it into one campaign.Setup. The ~15
// registrations and the mode-exclusion checks used to be duplicated per
// CLI; keeping them here means a new flag (or a new backend scheme)
// lands once and both CLIs agree on every error message.
package cliflags

import (
	"errors"
	"flag"
	"os"
	"time"

	"repro/internal/backendurl"
	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/resultstore"
	"repro/internal/sweep"
)

// CampaignFlags holds the raw flag values between Register and
// Resolve.
type CampaignFlags struct {
	Store   string
	NoStore bool
	StoreGC bool

	Shard string
	Merge bool
	Watch bool

	Parallel int

	Coord        string
	CoordShards  int
	CoordWorkers int
	LeaseTTL     time.Duration
	Heartbeat    time.Duration
	CoordStatus  bool

	HTTP *backendurl.HTTPOptions
}

// Register installs the shared campaign flags on fs and returns the
// struct Resolve reads after fs.Parse.
func Register(fs *flag.FlagSet) *CampaignFlags {
	f := &CampaignFlags{}
	fs.StringVar(&f.Store, "store", os.Getenv("RTR_STORE"),
		"persisted result store locator: a directory (or fs:DIR), mem:, or an rtrserved campaign http(s)://HOST:PORT/c/ID (default: $RTR_STORE); re-runs serve unchanged scenarios from the store")
	fs.BoolVar(&f.NoStore, "no-store", false, "disable the result store even when -store/$RTR_STORE is set")
	fs.BoolVar(&f.StoreGC, "store-gc", false, "garbage-collect the result store (stale-schema and corrupt entries) and exit")
	fs.StringVar(&f.Shard, "shard", "", "run only shard i/N of the sweep grid into -store (e.g. \"0/2\"); renders no report")
	fs.BoolVar(&f.Merge, "merge-report", false, "render the report purely from -store (populated by N -shard runs); a missing grid scenario is an error")
	fs.BoolVar(&f.Watch, "watch", false, "with -coord and -merge-report: block until the pool drains, rendering each report row the moment its scenarios are stored (per-shard progress on stderr); a pool dead past its lease TTL errors instead of hanging")
	fs.IntVar(&f.Parallel, "parallel", 0, "concurrently simulated scenarios (0 = one per CPU; reports are identical at any setting)")
	fs.StringVar(&f.Coord, "coord", "",
		"shard coordinator state locator (a directory, fs:DIR, mem:, or an rtrserved campaign http(s)://HOST:PORT/c/ID): claim, heartbeat and re-lease shards from a self-healing pool into -store; every host runs this same command")
	fs.IntVar(&f.CoordShards, "coord-shards", 0, "total shard count for the -coord pool; the first worker persists it, later workers may omit it (0) or must agree")
	fs.IntVar(&f.CoordWorkers, "coord-workers", 1, "concurrent shard-claim loops inside this process")
	fs.DurationVar(&f.LeaseTTL, "lease-ttl", 0, "coordinator lease expiry: a shard whose worker misses heartbeats this long is re-leased and re-run (0: adopt the pool's TTL, "+coord.DefaultLeaseTTL.String()+" when initialising; a non-zero mismatch with the pool is refused)")
	fs.DurationVar(&f.Heartbeat, "heartbeat", 0, "coordinator heartbeat interval (0: a quarter of -lease-ttl)")
	fs.BoolVar(&f.CoordStatus, "coord-status", false, "print the -coord pool's per-shard state (done/leased/pending, owner, attempts) and exit")
	f.HTTP = RegisterHTTP(fs)
	return f
}

// RegisterHTTP installs -auth-token (default $RTR_TOKEN) and
// -http-timeout, the wire-client flags for http(s) locators, on fs and
// returns the options they fill after fs.Parse.
func RegisterHTTP(fs *flag.FlagSet) *backendurl.HTTPOptions {
	o := &backendurl.HTTPOptions{}
	fs.StringVar(&o.Token, "auth-token", os.Getenv("RTR_TOKEN"),
		"bearer token sent with http(s) locators (default: $RTR_TOKEN)")
	fs.DurationVar(&o.Timeout, "http-timeout", time.Minute, "per-request timeout for http(s) locators")
	return o
}

// Resolve opens the backends and enforces the mode exclusions. The
// error messages are shared verbatim by both CLIs (several are pinned
// by tests and CI greps).
func (f *CampaignFlags) Resolve() (campaign.Setup, error) {
	s := campaign.Setup{
		StoreGC:     f.StoreGC,
		CoordStatus: f.CoordStatus,
		Merge:       f.Merge,
		Watch:       f.Watch,
		Parallel:    f.Parallel,
		HTTP:        *f.HTTP,
	}
	store, err := resultstore.OpenIfSet(f.Store, f.NoStore, s.HTTP)
	if err != nil {
		return s, err
	}
	s.Store = store
	if f.StoreGC {
		return s, nil // GC runs against s.Store (nil is RunGC's own error)
	}
	if f.CoordStatus && f.Coord == "" {
		return s, errors.New("-coord-status needs a coordinator directory (-coord DIR)")
	}
	if f.Coord != "" {
		back, err := coord.OpenBackend("-coord", f.Coord, s.HTTP)
		if err != nil {
			return s, err
		}
		s.Coord = &campaign.Coord{
			Backend: back, Shards: f.CoordShards, Workers: f.CoordWorkers,
			LeaseTTL: f.LeaseTTL, Heartbeat: f.Heartbeat,
		}
	}
	if f.CoordStatus {
		return s, nil
	}
	if f.Watch && (f.Coord == "" || !f.Merge) {
		return s, errors.New("-watch needs both -coord DIR and -merge-report: it renders from the store while the pool populates it")
	}
	if f.Coord != "" {
		if f.Shard != "" {
			return s, errors.New("-coord leases shards by itself — drop -shard")
		}
		if s.Store == nil {
			return s, errors.New("-coord needs a result store (-store DIR or $RTR_STORE)")
		}
	}
	if f.Shard != "" {
		sh, err := sweep.ParseShard(f.Shard)
		if err != nil {
			return s, err
		}
		if f.Merge {
			return s, errors.New("-shard and -merge-report are mutually exclusive (populate first, merge after)")
		}
		if s.Store == nil {
			return s, errors.New("-shard needs a result store (-store DIR or $RTR_STORE)")
		}
		s.Shard, s.HasShard = sh, true
	}
	if f.Merge && s.Store == nil {
		return s, errors.New("-merge-report needs a result store (-store DIR or $RTR_STORE)")
	}
	return s, nil
}
