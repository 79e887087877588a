// Package coord turns `-shard i/N` into a self-healing worker pool: a
// file-based shard coordinator that lives next to the result store and
// follows the same discipline (plain JSON files, atomic renames, safe to
// share between processes and hosts over any filesystem that renames
// atomically).
//
// The state directory holds one subdirectory per shard. A worker claims
// the next unleased (or expired) shard, heartbeats while it populates
// the shared result store with the shard's slice of the grid, and marks
// the shard done. A worker that dies mid-shard simply stops
// heartbeating: once its lease is older than the TTL, any other worker
// re-claims the shard under the next generation number and re-runs the
// slice — idempotent, because the result store dedupes scenarios by
// canonical config hash, so the scenarios the dead worker did finish are
// served as hits and only the remainder re-simulates.
//
// Mutual exclusion is an O_EXCL file create per (shard, generation):
// exactly one process can create `gen-G.claim`, so every generation of
// every shard has exactly one owner — there is nothing to lock and no
// daemon to run. The claim marker, not the lease file, is the source of
// truth for ownership; the lease file carries the owner's heartbeats. A
// worker that loses its lease to a thief (it stalled past the TTL but
// did not die) may still finish and mark the shard done — the two
// executions wrote the same store entries, so completion by either is
// completion.
//
// Layout under the coordinator directory (these are also the logical
// keys every Backend stores — the protocol state is identical whether
// it lives in files, memory or a campaign database):
//
//	coordinator.json       shard count + lease TTL + sweep fingerprint
//	                       (exclusive create by the first worker; later
//	                       workers verify or adopt all three)
//	shard-0007/
//	  gen-0001.claim       generation claim marker, exclusive create
//	  lease.json           current owner + heartbeat (atomic overwrite)
//	  done.json            completion record (owner, attempts, when)
//
// Persistence is pluggable: the protocol runs over a Backend (Get/Put/
// exclusive-Create/List plus the pool clock). FSBackend is the
// historical on-disk format above, byte for byte; MemBackend backs
// fake-clock -race tests and ephemeral single-process pools; and the
// http client (internal/backendurl) reaches a pool hosted by rtrserved.
// internal/coordtest runs the shared conformance suite against all of
// them.
//
// The same evidence drives the merge side of the pipeline: a watch-mode
// merge (the CLIs' `-coord … -merge-report -watch`) renders the report
// while the pool populates the store, and decides "finished?" from the
// done records and "still alive?" from the newest heartbeat, claim or
// completion timestamp across the pool — older than the lease TTL means
// no worker can still be heartbeating and the merge errors instead of
// polling forever (CheckDrained/Drained). PoolWatch packages the polling
// loop: background progress lines per shard transition plus a cached
// drain verdict for the sweep executor's workers, final once drained or
// dead. See ARCHITECTURE.md for how coordinator, result store and the
// streaming renderers compose into one unsupervised pipeline.
package coord

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"time"
)

// ErrLeaseLost reports that a later generation of the shard has been
// claimed: the caller stalled past the lease TTL and another worker took
// the shard over. The work itself is safe to finish (store writes are
// idempotent), but the heartbeat no longer protects anything.
var ErrLeaseLost = errors.New("coord: lease lost to a newer claim")

// ErrUninitialised reports an adoption-only Open (Config.Shards == 0) of
// a state directory no worker has initialised yet. CLIs catch it to
// point at their shard-count flag.
var ErrUninitialised = errors.New("coord: state directory not initialised")

// DefaultLeaseTTL is the lease expiry when Config.LeaseTTL is zero: how
// long a shard survives without heartbeats before other workers may
// re-claim it.
const DefaultLeaseTTL = 30 * time.Second

// Config opens a Coordinator.
type Config struct {
	// Backend is the persistence substrate the pool state lives in (and
	// the pool's clock); Open refuses a nil one. Coordinators of one
	// pool must use backends over the same state: the same directory
	// (NewFS), the same rtrserved campaign, or the very same MemBackend
	// instance.
	Backend Backend
	// Shards is the total shard count. The first worker to open the
	// directory persists it; later workers may pass 0 to adopt the
	// existing count, and a non-zero mismatch is an error.
	Shards int
	// Owner identifies this worker in leases and status output. Empty
	// defaults to "host-pid".
	Owner string
	// LeaseTTL is how stale a lease's heartbeat may be before the shard is
	// considered abandoned and re-claimable. Every worker of one pool
	// must use the same TTL, and the coordinator enforces it the same way
	// as the shard count: the first worker persists the value
	// (DefaultLeaseTTL when zero), later workers may pass 0 to adopt it,
	// and a non-zero mismatch is refused — a host with a shorter TTL than
	// the pool would steal live leases and duplicate their work.
	LeaseTTL time.Duration
	// Heartbeat is the refresh (and idle-poll) interval RunWorkers uses;
	// 0 means a quarter of the lease TTL. It must be comfortably below
	// the TTL or live leases will be stolen.
	Heartbeat time.Duration
	// Fingerprint, when non-empty, identifies the sweep this pool is
	// running (experiments, workload parameters, shard count — whatever
	// the caller hashes). The first worker persists it; a later worker
	// with a different non-empty fingerprint is refused, catching the
	// operator error of pointing hosts with different flags at one
	// coordinator before they waste hours populating a store the merge
	// will reject.
	Fingerprint string
}

// Coordinator hands out shard leases from a backend's pool state. Safe
// for concurrent use by any number of goroutines and processes.
type Coordinator struct {
	b         Backend
	shards    int
	ttl       time.Duration
	heartbeat time.Duration
	owner     string
}

// now is the pool clock: every lease-expiry decision — claiming,
// Status, CheckDrained, LastActivity clamping — reads it, and it comes
// from the backend so fake-clock tests drive the exact production
// arithmetic.
func (c *Coordinator) now() time.Time { return c.b.Now() }

// stateFile is coordinator.json: the pool-wide constants every worker
// must agree on.
type stateFile struct {
	Shards      int    `json:"shards"`
	LeaseTTLNS  int64  `json:"lease_ttl_ns"`
	Fingerprint string `json:"fingerprint,omitempty"`
	CreatedBy   string `json:"created_by"`
	CreatedNS   int64  `json:"created_ns"`
}

// leaseFile is shard-*/lease.json: the current generation owner and its
// latest heartbeat.
type leaseFile struct {
	Shard       int    `json:"shard"`
	Gen         int    `json:"gen"`
	Owner       string `json:"owner"`
	HeartbeatNS int64  `json:"heartbeat_ns"`
	StartedNS   int64  `json:"started_ns"`
}

// claimFile is the content of a gen-*.claim marker. The marker's
// existence is the claim; the content lets expiry checks use the
// coordinator's clock (not file mtimes) and status name the claimer.
type claimFile struct {
	Owner     string `json:"owner"`
	ClaimedNS int64  `json:"claimed_ns"`
}

// doneFile is shard-*/done.json: presence marks the shard complete.
type doneFile struct {
	Shard      int    `json:"shard"`
	Owner      string `json:"owner"`
	Attempts   int    `json:"attempts"`
	FinishedNS int64  `json:"finished_ns"`
	ElapsedNS  int64  `json:"elapsed_ns"`
}

// stateKey is the pool-constants record every worker must agree on.
const stateKey = "coordinator.json"

// Open creates or joins the coordinator pool state. See Config for the
// initialise-vs-adopt rules.
func Open(cfg Config) (*Coordinator, error) {
	b := cfg.Backend
	if b == nil {
		return nil, errors.New("coord: no pool backend")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("coord: shard count %d < 0", cfg.Shards)
	}
	c := &Coordinator{
		b:     b,
		owner: cfg.Owner,
	}
	if c.owner == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		c.owner = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	state, err := getJSON[stateFile](b, stateKey)
	if errors.Is(err, fs.ErrNotExist) {
		if cfg.Shards == 0 {
			return nil, fmt.Errorf("%w: %s — the first worker must pass the shard count", ErrUninitialised, c.Dir())
		}
		ttl := cfg.LeaseTTL
		if ttl <= 0 {
			ttl = DefaultLeaseTTL
		}
		state = &stateFile{
			Shards:      cfg.Shards,
			LeaseTTLNS:  int64(ttl),
			Fingerprint: cfg.Fingerprint,
			CreatedBy:   c.owner,
			CreatedNS:   c.now().UnixNano(),
		}
		err = createJSON(b, stateKey, state)
		if errors.Is(err, fs.ErrExist) {
			// Two first workers raced; adopt the winner's state below.
			state, err = getJSON[stateFile](b, stateKey)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	if state.Shards < 1 {
		return nil, fmt.Errorf("coord: %s in %s records %d shards — corrupt state", stateKey, c.Dir(), state.Shards)
	}
	if cfg.Shards != 0 && cfg.Shards != state.Shards {
		return nil, fmt.Errorf("coord: shard count %d does not match the coordinator's %d (initialised by %s) — every worker of one pool must agree",
			cfg.Shards, state.Shards, state.CreatedBy)
	}
	if cfg.Fingerprint != "" && state.Fingerprint != "" && cfg.Fingerprint != state.Fingerprint {
		return nil, fmt.Errorf("coord: sweep fingerprint mismatch with %s (initialised by %s): this worker was launched with different experiment parameters than the pool",
			c.Dir(), state.CreatedBy)
	}
	c.shards = state.Shards
	// The TTL is pool-wide state, exactly like the shard count: expiry
	// decisions made with different TTLs on different hosts would steal
	// live leases (shorter) or stall recovery (longer).
	c.ttl = time.Duration(state.LeaseTTLNS)
	if c.ttl <= 0 {
		c.ttl = DefaultLeaseTTL // hand-edited or pre-TTL state file
	}
	if cfg.LeaseTTL > 0 && cfg.LeaseTTL != c.ttl {
		return nil, fmt.Errorf("coord: lease TTL %v does not match the pool's %v (initialised by %s) — every worker of one pool must agree",
			cfg.LeaseTTL, c.ttl, state.CreatedBy)
	}
	c.heartbeat = cfg.Heartbeat
	if c.heartbeat <= 0 {
		c.heartbeat = c.ttl / 4
	}
	if c.heartbeat >= c.ttl {
		return nil, fmt.Errorf("coord: heartbeat interval %v is not below the lease TTL %v — live leases would be stolen", c.heartbeat, c.ttl)
	}
	return c, nil
}

// Shards returns the pool's total shard count.
func (c *Coordinator) Shards() int { return c.shards }

// Owner returns this worker's identity as recorded in leases.
func (c *Coordinator) Owner() string { return c.owner }

// LeaseTTL returns the pool's lease expiry.
func (c *Coordinator) LeaseTTL() time.Duration { return c.ttl }

// HeartbeatInterval returns the refresh/poll interval this worker uses
// (Config.Heartbeat, or a quarter of the lease TTL) — also the natural
// cadence for watchers polling the pool's state.
func (c *Coordinator) HeartbeatInterval() time.Duration { return c.heartbeat }

// Dir returns the pool state's location: the state directory for the
// fs backend, the locator ("mem:", "http://…") otherwise. The name
// is historical; treat it as a display string, not necessarily a path.
func (c *Coordinator) Dir() string { return c.b.Location() }

// Backend exposes the persistence substrate, for conformance tooling
// and callers sharing one backend across Coordinator handles.
func (c *Coordinator) Backend() Backend { return c.b }

// shardKey is the logical key prefix of one shard's records.
func shardKey(shard int) string {
	return fmt.Sprintf("shard-%04d", shard)
}

func claimKey(shard, gen int) string {
	return fmt.Sprintf("shard-%04d/gen-%04d.claim", shard, gen)
}

func leaseKey(shard int) string { return shardKey(shard) + "/lease.json" }
func doneKey(shard int) string  { return shardKey(shard) + "/done.json" }

// Lease is one claimed (shard, generation): the holder runs the shard's
// slice, heartbeats, and marks it done.
type Lease struct {
	c *Coordinator
	// Shard is the claimed shard index, 0 ≤ Shard < Shards().
	Shard int
	// Gen is the claim generation, 1 on the first attempt. Gen > 1 means
	// the shard was re-claimed after a previous worker's lease expired —
	// the attempt count the CI self-healing gate asserts on.
	Gen int
}

// Claim atomically claims the lowest-numbered shard that is neither done
// nor covered by a live lease, creating generation markers with O_EXCL so
// every (shard, generation) has exactly one owner no matter how many
// workers race. It returns (nil, nil) when nothing is claimable right
// now — every remaining shard is done or leased with fresh heartbeats —
// which is the caller's cue to poll Status and either stop (all done) or
// wait for a lease to expire.
func (c *Coordinator) Claim() (*Lease, error) {
	for shard := 0; shard < c.shards; shard++ {
		lease, err := c.tryShard(shard)
		if err != nil {
			return nil, err
		}
		if lease != nil {
			return lease, nil
		}
	}
	return nil, nil
}

// tryShard claims one shard if it is open: never claimed, or its newest
// generation's heartbeat (falling back to the claim timestamp when the
// claimer died before writing a lease) is older than the TTL.
func (c *Coordinator) tryShard(shard int) (*Lease, error) {
	ins, err := c.inspect(shard)
	if err != nil {
		return nil, err
	}
	if ins.done != nil {
		return nil, nil
	}
	gen := 1
	if ins.topGen > 0 {
		if c.now().Sub(ins.lastBeat) < c.ttl {
			return nil, nil // live lease
		}
		gen = ins.topGen + 1
	}
	claim := claimFile{Owner: c.owner, ClaimedNS: c.now().UnixNano()}
	err = createJSON(c.b, claimKey(shard, gen), &claim)
	if errors.Is(err, fs.ErrExist) {
		return nil, nil // lost the race for this generation; shard is taken
	}
	if err != nil {
		return nil, fmt.Errorf("coord: claim shard %d: %w", shard, err)
	}
	l := &Lease{c: c, Shard: shard, Gen: gen}
	if err := l.writeLease(); err != nil {
		return nil, err
	}
	return l, nil
}

// inspection is one shard's on-disk state, read without locks: the
// newest claimed generation, the freshest evidence of life for it, and
// the done/lease records if present.
type inspection struct {
	topGen   int
	topClaim *claimFile
	lease    *leaseFile
	done     *doneFile
	// lastBeat is the newest generation's proof of life: its lease
	// heartbeat, or its claim timestamp while no lease has been written
	// (the claimer may have died in between — the claim time starts the
	// same TTL clock).
	lastBeat time.Time
}

func (c *Coordinator) inspect(shard int) (*inspection, error) {
	var ins inspection
	names, err := c.b.List(shardKey(shard))
	if errors.Is(err, fs.ErrNotExist) {
		return &ins, nil
	}
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "gen-") || !strings.HasSuffix(name, ".claim") {
			continue
		}
		g, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "gen-"), ".claim"))
		if err != nil || g <= ins.topGen {
			continue
		}
		ins.topGen = g
	}
	if ins.topGen > 0 {
		// A claim marker that fails to decode still proves the generation
		// exists; its zero timestamp just makes the lease look expired,
		// which is the safe direction (re-claim, idempotent re-run).
		ins.topClaim, _ = getJSON[claimFile](c.b, claimKey(shard, ins.topGen))
		if ins.topClaim != nil {
			ins.lastBeat = time.Unix(0, ins.topClaim.ClaimedNS)
		}
	}
	if l, err := getJSON[leaseFile](c.b, leaseKey(shard)); err == nil && l.Gen == ins.topGen {
		ins.lease = l
		if hb := time.Unix(0, l.HeartbeatNS); hb.After(ins.lastBeat) {
			ins.lastBeat = hb
		}
	}
	ins.lastBeat = c.clampFuture(ins.lastBeat, c.now())
	ins.done, _ = getJSON[doneFile](c.b, doneKey(shard))
	return &ins, nil
}

// clampFuture is the one clock-skew rule every LastActivity and expiry
// decision shares. Timestamps come from other hosts' clocks: skew
// within one TTL just shifts expiry by the skew (stall bounded by
// 2×TTL), but evidence of life further in the future than one TTL can
// only be a broken clock, and trusting it would block recovery of a
// dead shard — or keep a dead pool looking alive to CheckDrained — for
// the whole skew. Treat it as no evidence at all (zero time, already
// expired). Worst case, a live worker with that broken clock has its
// slice re-run concurrently: idempotent duplicate work, never
// corruption. Backward skew only expires leases early, with the same
// bounded cost.
func (c *Coordinator) clampFuture(t, now time.Time) time.Time {
	if t.After(now.Add(c.ttl)) {
		return time.Time{}
	}
	return t
}

// writeLease publishes (or refreshes) the lease file for this holder's
// generation.
func (l *Lease) writeLease() error {
	now := l.c.now().UnixNano()
	lf := leaseFile{
		Shard: l.Shard, Gen: l.Gen, Owner: l.c.owner,
		HeartbeatNS: now, StartedNS: now,
	}
	if prev, err := getJSON[leaseFile](l.c.b, leaseKey(l.Shard)); err == nil && prev.Gen == l.Gen {
		lf.StartedNS = prev.StartedNS
	}
	if err := putJSON(l.c.b, leaseKey(l.Shard), &lf); err != nil {
		return fmt.Errorf("coord: lease shard %d: %w", l.Shard, err)
	}
	return nil
}

// Heartbeat refreshes the lease so other workers keep treating the shard
// as live. It returns ErrLeaseLost once a newer generation has been
// claimed — the holder stalled past the TTL and the shard now belongs to
// someone else; finishing the work remains safe, but Done will be
// credited to whichever generation completes first.
func (l *Lease) Heartbeat() error {
	ins, err := l.c.inspect(l.Shard)
	if err != nil {
		return err
	}
	if ins.topGen > l.Gen {
		return ErrLeaseLost
	}
	return l.writeLease()
}

// Done marks the shard complete. Idempotent: the first completion record
// wins and later ones (a stale-generation holder finishing after a
// take-over) are no-ops — by then the store holds the shard's entries
// either way.
func (l *Lease) Done() error {
	d := doneFile{
		Shard: l.Shard, Owner: l.c.owner, Attempts: l.Gen,
		FinishedNS: l.c.now().UnixNano(),
	}
	if lf, err := getJSON[leaseFile](l.c.b, leaseKey(l.Shard)); err == nil && lf.Gen == l.Gen {
		d.ElapsedNS = d.FinishedNS - lf.StartedNS
	}
	key := doneKey(l.Shard)
	err := createJSON(l.c.b, key, &d)
	if errors.Is(err, fs.ErrExist) {
		// Someone recorded completion first — fine. Unless the existing
		// record is undecodable (disk damage; our own writes are atomic):
		// then inspect would keep reporting the shard unfinished and the
		// pool would re-run it forever, so repair it in place.
		if _, rerr := getJSON[doneFile](l.c.b, key); rerr != nil {
			if werr := putJSON(l.c.b, key, &d); werr != nil {
				return fmt.Errorf("coord: repair done record of shard %d: %w", l.Shard, werr)
			}
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("coord: done shard %d: %w", l.Shard, err)
	}
	return nil
}

// ShardState classifies one shard in a Status report.
type ShardState string

const (
	// StatePending — never claimed, or every claim's lease has expired.
	StatePending ShardState = "pending"
	// StateLeased — a live lease is heartbeating.
	StateLeased ShardState = "leased"
	// StateDone — a completion record exists.
	StateDone ShardState = "done"
)

// ShardStatus is one shard's row in a Status report.
type ShardStatus struct {
	Shard int
	State ShardState
	// Owner is the completing worker (done), the current leaseholder
	// (leased), or the last claimer (pending after expiry).
	Owner string
	// Attempts is how many generations were claimed — the self-healing
	// evidence: attempts > 1 means at least one worker died (or stalled
	// past the TTL) on this shard and another took it over.
	Attempts int
	// HeartbeatAge is the age of the newest proof of life; meaningful for
	// leased and expired-pending shards.
	HeartbeatAge time.Duration
	// LastActivity is the shard's newest proof of life as an absolute
	// time: the completion time for done shards, the newest heartbeat (or
	// claim) timestamp for claimed ones, zero for never-claimed shards.
	// Watch-mode merges aggregate it across the pool to tell a slow pool
	// from a dead one (see CheckDrained).
	LastActivity time.Time
}

// Status is a point-in-time snapshot of every shard.
type Status struct {
	Shards []ShardStatus
}

// Counts tallies the snapshot by state.
func (s Status) Counts() (done, leased, pending int) {
	for _, sh := range s.Shards {
		switch sh.State {
		case StateDone:
			done++
		case StateLeased:
			leased++
		default:
			pending++
		}
	}
	return
}

// AllDone reports whether every shard has a completion record.
func (s Status) AllDone() bool {
	done, _, _ := s.Counts()
	return done == len(s.Shards)
}

// MaxAttempts returns the largest per-shard attempt count in the
// snapshot (0 when nothing was ever claimed).
func (s Status) MaxAttempts() int {
	max := 0
	for _, sh := range s.Shards {
		if sh.Attempts > max {
			max = sh.Attempts
		}
	}
	return max
}

// Status snapshots every shard's state. It is advisory — leases move
// under concurrent workers — but a shard reported done stays done.
func (c *Coordinator) Status() (Status, error) {
	st := Status{Shards: make([]ShardStatus, c.shards)}
	now := c.now()
	for i := range st.Shards {
		row := &st.Shards[i]
		row.Shard = i
		ins, err := c.inspect(i)
		if err != nil {
			return Status{}, err
		}
		switch {
		case ins.done != nil:
			row.State = StateDone
			row.Owner = ins.done.Owner
			row.Attempts = ins.done.Attempts
			if ins.topGen > row.Attempts {
				row.Attempts = ins.topGen
			}
			// clampFuture: a completion stamped beyond one TTL in the
			// future can only be a broken clock, and letting it stand
			// would keep an otherwise-dead pool looking alive for the
			// whole skew. Zero evidence errs toward the dead verdict —
			// an error the operator sees, never a hang.
			row.LastActivity = c.clampFuture(time.Unix(0, ins.done.FinishedNS), now)
		case ins.topGen > 0:
			row.Attempts = ins.topGen
			row.HeartbeatAge = now.Sub(ins.lastBeat)
			row.LastActivity = ins.lastBeat
			if row.HeartbeatAge < c.ttl {
				row.State = StateLeased
			} else {
				row.State = StatePending
			}
			if ins.lease != nil {
				row.Owner = ins.lease.Owner
			} else if ins.topClaim != nil {
				row.Owner = ins.topClaim.Owner
			}
		default:
			row.State = StatePending
		}
	}
	return st, nil
}

// Render prints the status as the operator-facing table the CLIs'
// -coord-status flag emits (and the CI self-healing gate greps — keep
// the format stable).
func (s Status) Render(dir string) string {
	var b strings.Builder
	done, leased, pending := s.Counts()
	fmt.Fprintf(&b, "coordinator %s: %d shards, %d done, %d leased, %d pending\n",
		dir, len(s.Shards), done, leased, pending)
	for _, sh := range s.Shards {
		fmt.Fprintf(&b, "shard %d: %s", sh.Shard, sh.State)
		if sh.Owner != "" {
			fmt.Fprintf(&b, " by %s", sh.Owner)
		}
		if sh.Attempts > 0 {
			fmt.Fprintf(&b, ", attempts %d", sh.Attempts)
		}
		if sh.State == StateLeased {
			fmt.Fprintf(&b, ", heartbeat %s ago", sh.HeartbeatAge.Round(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
