// Package coordtest is the shard-coordinator conformance harness: a
// registry of every pool-state backend (fs, mem, fault, http — the
// last over a live in-process control plane) and one
// shared suite of the lease-protocol properties the multi-host sweeps
// depend on — adopt-or-initialise pool constants, exactly-one-owner
// claims per (shard, generation), TTL re-lease with attempt counting,
// a stale holder's late heartbeat never shortening a newer generation's
// live lease, the drain verdicts, and the future-clock clamp. A new
// backend is correct when it passes Conformance; the suite drives every
// worker off an injected fake clock, so it exercises the exact
// production expiry arithmetic on all backends.
package coordtest

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backendurl"
	"repro/internal/coord"
	"repro/internal/faultstore"
	"repro/internal/storetest"
)

// Backend is one registered coordinator backend under test.
type Backend struct {
	// Name is the subtest name: "fs", "mem", "fault", "http".
	Name string
	// New creates one fresh, empty pool state and returns a handle
	// factory: every call yields a coord.Backend over that same state
	// whose clock is the given function — one handle per simulated
	// worker, so each worker can run on its own (possibly skewed)
	// clock exactly as separate hosts do.
	New func(tb testing.TB) func(clk func() time.Time) coord.Backend
}

// reclocked overrides a shared backend handle's clock, for backends
// where the clock is not per-handle injectable: mem (all workers share
// one instance) and http (Now would ask the server).
type reclocked struct {
	coord.Backend
	clk func() time.Time
}

func (r reclocked) Now() time.Time { return r.clk() }

// parkingPut wraps a worker's handle so that, once armed, its next Put
// blocks until release is closed: a heartbeat stalled between checking
// its generation and writing.
type parkingPut struct {
	coord.Backend
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkingPut) Put(key string, data []byte) error {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return p.Backend.Put(key, data)
}

// Backends returns every registered coordinator backend: fs, mem, the
// fault-injection decorator and http.
func Backends() []Backend {
	return []Backend{
		{
			Name: "fs",
			New: func(tb testing.TB) func(clk func() time.Time) coord.Backend {
				dir := tb.TempDir()
				return func(clk func() time.Time) coord.Backend {
					b := coord.NewFS(dir)
					b.Clock = clk
					return b
				}
			},
		},
		{
			Name: "mem",
			New: func(tb testing.TB) func(clk func() time.Time) coord.Backend {
				shared := coord.NewMem()
				return func(clk func() time.Time) coord.Backend {
					return reclocked{Backend: shared, clk: clk}
				}
			},
		},
		{
			// fault runs the lease protocol through the fault-injection
			// decorator (internal/faultstore) over mem, with seeded real-time
			// latency on every backend call. Expiry arithmetic still runs on
			// the injected fake clock, so the jitter shakes out ordering
			// assumptions without perturbing lease timings. Latency only —
			// the suite asserts exact claim/attempt counts.
			Name: "fault",
			New: func(tb testing.TB) func(clk func() time.Time) coord.Backend {
				plan := faultstore.NewPlan(1).WithLatency(500 * time.Microsecond)
				shared := faultstore.WrapCoord(coord.NewMem(), plan)
				return func(clk func() time.Time) coord.Backend {
					return reclocked{Backend: shared, clk: clk}
				}
			},
		},
		{
			// http runs the lease protocol against a live control plane.
			// The fake clock replaces the server-clock Now (the expiry
			// arithmetic under test is client-side either way); Get/Put/
			// Create/List — including the exclusive-create claims every
			// property here races on — go over the wire.
			Name: "http",
			New: func(tb testing.TB) func(clk func() time.Time) coord.Backend {
				base, opts := storetest.HTTPCampaign(tb)
				return func(clk func() time.Time) coord.Backend {
					loc, err := backendurl.Parse("-coord", base)
					if err != nil {
						tb.Fatal(err)
					}
					b, err := backendurl.NewHTTPCoord(loc, opts)
					if err != nil {
						tb.Fatal(err)
					}
					return reclocked{Backend: b, clk: clk}
				}
			},
		},
	}
}

// Clock is a race-safe fake clock shared by every worker of a test
// pool (skewed workers wrap Now with an offset).
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock starts at an arbitrary fixed epoch — pool arithmetic only
// ever subtracts timestamps.
func NewClock() *Clock {
	return &Clock{t: time.Unix(1_700_000_000, 0)}
}

func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// Conformance runs every pinned coordinator property against one
// backend. Each subtest builds its own fresh pool state.
func Conformance(t *testing.T, b Backend) {
	const ttl = 30 * time.Second

	open := func(t *testing.T, handle coord.Backend, shards int, owner string) *coord.Coordinator {
		t.Helper()
		c, err := coord.Open(coord.Config{Backend: handle, Shards: shards, Owner: owner, LeaseTTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("AdoptOrInitialise", func(t *testing.T) {
		clk := NewClock()
		newHandle := b.New(t)
		handle := newHandle(clk.Now)

		// An uninitialised pool refuses workers without a shard count.
		if _, err := coord.Open(coord.Config{Backend: handle}); err == nil {
			t.Fatal("joined an uninitialised pool without a shard count")
		}
		first, err := coord.Open(coord.Config{Backend: handle, Shards: 3, Owner: "first", LeaseTTL: ttl, Fingerprint: "fp-a"})
		if err != nil {
			t.Fatal(err)
		}
		// A later worker adopts the persisted constants by passing zeros.
		second, err := coord.Open(coord.Config{Backend: newHandle(clk.Now), Owner: "second"})
		if err != nil {
			t.Fatal(err)
		}
		if second.Shards() != 3 || second.LeaseTTL() != ttl {
			t.Errorf("adopted shards=%d ttl=%v, want 3/%v", second.Shards(), second.LeaseTTL(), ttl)
		}
		// Mismatched constants are refused: shard count, TTL, fingerprint.
		if _, err := coord.Open(coord.Config{Backend: newHandle(clk.Now), Shards: 5}); err == nil {
			t.Error("mismatched shard count accepted")
		}
		if _, err := coord.Open(coord.Config{Backend: newHandle(clk.Now), LeaseTTL: ttl * 2}); err == nil {
			t.Error("mismatched lease TTL accepted")
		}
		if _, err := coord.Open(coord.Config{Backend: newHandle(clk.Now), Fingerprint: "fp-b"}); err == nil {
			t.Error("mismatched fingerprint accepted")
		}
		_ = first
	})

	t.Run("ExactlyOnceClaims", func(t *testing.T) {
		clk := NewClock()
		newHandle := b.New(t)
		const shards, workers = 4, 4

		// Workers race to drain the pool; every shard must be claimed
		// and completed exactly once (generation 1, one owner each).
		var wg sync.WaitGroup
		var mu sync.Mutex
		owners := make(map[int][]string)
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, err := coord.Open(coord.Config{Backend: newHandle(clk.Now), Shards: shards, Owner: strings.Repeat("w", w+1), LeaseTTL: ttl})
				if err != nil {
					errs <- err
					return
				}
				for {
					lease, err := c.Claim()
					if err != nil {
						errs <- err
						return
					}
					if lease == nil {
						return
					}
					mu.Lock()
					owners[lease.Shard] = append(owners[lease.Shard], c.Owner())
					mu.Unlock()
					if err := lease.Done(); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for shard := 0; shard < shards; shard++ {
			if n := len(owners[shard]); n != 1 {
				t.Errorf("shard %d claimed %d times (%v), want exactly once", shard, n, owners[shard])
			}
		}
		c := open(t, newHandle(clk.Now), 0, "checker")
		if drained, err := c.Drained(); !drained || err != nil {
			t.Errorf("drained = %v, %v after all shards done", drained, err)
		}
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxAttempts() != 1 {
			t.Errorf("max attempts = %d, want 1 — a clean drain must not re-claim", st.MaxAttempts())
		}
	})

	t.Run("TTLReleaseCountsAttempts", func(t *testing.T) {
		clk := NewClock()
		newHandle := b.New(t)
		dead := open(t, newHandle(clk.Now), 1, "dead")
		survivor := open(t, newHandle(clk.Now), 0, "survivor")

		lease, err := dead.Claim()
		if err != nil || lease == nil || lease.Gen != 1 {
			t.Fatal(lease, err)
		}
		// While the lease heartbeats, nobody can steal the shard.
		if stolen, err := survivor.Claim(); err != nil || stolen != nil {
			t.Fatalf("live lease stolen: %v, %v", stolen, err)
		}
		clk.Advance(ttl / 2)
		if err := lease.Heartbeat(); err != nil {
			t.Fatal(err)
		}
		clk.Advance(ttl - time.Second) // beyond the claim, within the refreshed lease
		if stolen, err := survivor.Claim(); err != nil || stolen != nil {
			t.Fatalf("heartbeat did not extend the lease: %v, %v", stolen, err)
		}
		// The holder dies; one TTL after its last heartbeat the shard is
		// re-claimable at the next generation.
		clk.Advance(2 * time.Second)
		lease2, err := survivor.Claim()
		if err != nil || lease2 == nil {
			t.Fatal(lease2, err)
		}
		if lease2.Shard != 0 || lease2.Gen != 2 {
			t.Fatalf("re-claim = shard %d gen %d, want shard 0 gen 2", lease2.Shard, lease2.Gen)
		}
		// The dead worker's lease is gone for good.
		if err := lease.Heartbeat(); err != coord.ErrLeaseLost {
			t.Errorf("stale holder heartbeat = %v, want ErrLeaseLost", err)
		}
		if err := lease2.Done(); err != nil {
			t.Fatal(err)
		}
		st, err := survivor.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxAttempts() != 2 || !st.AllDone() {
			t.Errorf("status attempts=%d allDone=%v, want 2/true", st.MaxAttempts(), st.AllDone())
		}
	})

	t.Run("StaleHeartbeatKeepsLiveLease", func(t *testing.T) {
		clk := NewClock()
		newHandle := b.New(t)
		parking := &parkingPut{Backend: newHandle(clk.Now), parked: make(chan struct{}), release: make(chan struct{})}
		release := sync.OnceFunc(func() { close(parking.release) })
		defer release()
		stale := open(t, parking, 1, "stale")
		second := open(t, newHandle(clk.Now), 0, "second")
		third := open(t, newHandle(clk.Now), 0, "third")

		lease, err := stale.Claim()
		if err != nil || lease == nil || lease.Gen != 1 {
			t.Fatal(lease, err)
		}
		// The stale holder's heartbeat passes its generation check and
		// parks before writing.
		parking.armed.Store(true)
		hbErr := make(chan error, 1)
		go func() { hbErr <- lease.Heartbeat() }()
		select {
		case <-parking.parked:
		case <-time.After(10 * time.Second):
			t.Fatal("the stale heartbeat never wrote")
		}
		// Meanwhile its lease expires, a second worker takes the shard
		// over and heartbeats.
		clk.Advance(ttl + time.Second)
		lease2, err := second.Claim()
		if err != nil || lease2 == nil || lease2.Gen != 2 {
			t.Fatalf("take-over = %v, %v, want generation 2", lease2, err)
		}
		clk.Advance(ttl / 2)
		if err := lease2.Heartbeat(); err != nil {
			t.Fatal(err)
		}
		// The stale write lands late. Past the generation-2 claim's TTL,
		// only the second worker's heartbeat keeps the shard live, and
		// the late write must not have cost it that.
		release()
		if err := <-hbErr; err != nil {
			t.Errorf("stale heartbeat = %v", err)
		}
		clk.Advance(ttl/2 + time.Second)
		if stolen, err := third.Claim(); err != nil || stolen != nil {
			t.Fatalf("live generation-2 lease stolen: %+v, %v", stolen, err)
		}
	})

	t.Run("DrainVerdicts", func(t *testing.T) {
		clk := NewClock()
		newHandle := b.New(t)
		c := open(t, newHandle(clk.Now), 2, "w")

		// Forming: nothing claimed yet → wait.
		if drained, err := c.Drained(); drained || err != nil {
			t.Fatalf("forming pool: drained=%v err=%v, want wait", drained, err)
		}
		lease, err := c.Claim()
		if err != nil || lease == nil {
			t.Fatal(lease, err)
		}
		// Live lease → wait.
		if drained, err := c.Drained(); drained || err != nil {
			t.Fatalf("live lease: drained=%v err=%v, want wait", drained, err)
		}
		if err := lease.Done(); err != nil {
			t.Fatal(err)
		}
		// Between claims, a recent completion is proof of life → wait.
		clk.Advance(ttl / 2)
		if drained, err := c.Drained(); drained || err != nil {
			t.Fatalf("between claims: drained=%v err=%v, want wait", drained, err)
		}
		// A claimed shard whose evidence ages past twice the TTL → dead
		// verdict; one TTL is not enough, since a survivor may still be
		// on its way to re-claim the shard.
		lease2, err := c.Claim()
		if err != nil || lease2 == nil {
			t.Fatal(lease2, err)
		}
		clk.Advance(ttl + time.Second)
		if drained, err := c.Drained(); drained || err != nil {
			t.Fatalf("one TTL of silence: drained=%v err=%v, want wait", drained, err)
		}
		clk.Advance(ttl)
		drained, err := c.Drained()
		if drained || err == nil || !strings.Contains(err.Error(), "looks dead") {
			t.Fatalf("dead pool verdict = (%v, %v), want the 'looks dead' error", drained, err)
		}
		// Recovery: re-claim and finish → drained.
		lease3, err := c.Claim()
		if err != nil || lease3 == nil || lease3.Gen != 2 {
			t.Fatal(lease3, err)
		}
		if err := lease3.Done(); err != nil {
			t.Fatal(err)
		}
		if drained, err := c.Drained(); !drained || err != nil {
			t.Fatalf("finished pool: drained=%v err=%v, want true", drained, err)
		}

		// A survivor finishes its shard less than one heartbeat after the
		// victim's last heartbeat. One TTL after that completion the
		// victim's lease has expired, but the survivor re-claims the
		// shard only at its next idle poll, up to one heartbeat later:
		// the pool is live, so a watcher polling in that gap must wait.
		newPool := b.New(t)
		victim := open(t, newPool(clk.Now), 2, "victim")
		survivor := open(t, newPool(clk.Now), 0, "survivor")
		hb := survivor.HeartbeatInterval()
		if _, err := victim.Claim(); err != nil {
			t.Fatal(err)
		}
		own, err := survivor.Claim()
		if err != nil || own == nil {
			t.Fatal(own, err)
		}
		clk.Advance(hb / 2)
		if err := own.Done(); err != nil {
			t.Fatal(err)
		}
		clk.Advance(ttl + hb/4)
		if drained, err := survivor.Drained(); drained || err != nil {
			t.Fatalf("before the survivor's re-claim: drained=%v err=%v, want wait", drained, err)
		}
		taken, err := survivor.Claim()
		if err != nil || taken == nil || taken.Gen != 2 {
			t.Fatalf("survivor re-claim = %v, %v, want generation 2", taken, err)
		}
		if err := taken.Done(); err != nil {
			t.Fatal(err)
		}
		if drained, err := survivor.Drained(); !drained || err != nil {
			t.Fatalf("healed pool: drained=%v err=%v, want true", drained, err)
		}
	})

	t.Run("CheckpointRoundTrip", func(t *testing.T) {
		clk := NewClock()
		newHandle := b.New(t)
		handle := newHandle(clk.Now)
		c := open(t, handle, 2, "w")

		// Missing records read as absent, saves round-trip verbatim, and
		// a re-save overwrites (last writer wins — exactly Put's contract).
		cks := coord.NewCheckpointStore(handle)
		const name = "shard-0000/grid0"
		if _, ok := cks.LoadCheckpoint(name); ok {
			t.Fatal("phantom checkpoint before any save")
		}
		rec := []byte(`{"schema":1,"fingerprint":"fp","collected":7}`)
		if err := cks.SaveCheckpoint(name, rec); err != nil {
			t.Fatal(err)
		}
		if got, ok := cks.LoadCheckpoint(name); !ok || string(got) != string(rec) {
			t.Fatalf("load after save = %q, %v; want the saved record", got, ok)
		}
		rec2 := []byte(`{"schema":1,"fingerprint":"fp","collected":9}`)
		if err := cks.SaveCheckpoint(name, rec2); err != nil {
			t.Fatal(err)
		}
		if got, ok := cks.LoadCheckpoint(name); !ok || string(got) != string(rec2) {
			t.Fatalf("load after re-save = %q, %v; want the newer record", got, ok)
		}
		// The checkpoint namespace is invisible to the lease protocol:
		// the pool still drains exactly as if no checkpoints existed.
		for shard := 0; shard < 2; shard++ {
			lease, err := c.Claim()
			if err != nil || lease == nil {
				t.Fatal(lease, err)
			}
			if err := lease.Done(); err != nil {
				t.Fatal(err)
			}
		}
		if drained, err := c.Drained(); !drained || err != nil {
			t.Fatalf("drained = %v, %v with checkpoints present, want clean drain", drained, err)
		}
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxAttempts() != 1 {
			t.Errorf("max attempts = %d, want 1 — checkpoint records must not read as claims", st.MaxAttempts())
		}
	})

	t.Run("FutureClockClamped", func(t *testing.T) {
		clk := NewClock()
		newHandle := b.New(t)
		sane := open(t, newHandle(clk.Now), 2, "sane")
		skewed := open(t, newHandle(func() time.Time { return clk.Now().Add(48 * time.Hour) }), 0, "skewed")

		// The skewed worker completes shard 0 with a far-future stamp.
		lease, err := skewed.Claim()
		if err != nil || lease == nil {
			t.Fatal(lease, err)
		}
		if err := lease.Done(); err != nil {
			t.Fatal(err)
		}
		// Status must clamp the future completion: LastActivity never
		// exceeds the observer's now — the invariant CheckDrained's
		// pool-liveness aggregation depends on.
		st, err := sane.Status()
		if err != nil {
			t.Fatal(err)
		}
		now := clk.Now()
		for _, sh := range st.Shards {
			if sh.LastActivity.After(now) {
				t.Errorf("shard %d LastActivity %v is after now %v — future stamp unclamped", sh.Shard, sh.LastActivity, now)
			}
		}
		// A sane worker claims shard 1 and dies: the skewed completion
		// must not keep the dead pool looking alive.
		lease2, err := sane.Claim()
		if err != nil || lease2 == nil {
			t.Fatal(lease2, err)
		}
		clk.Advance(2*ttl + time.Second)
		drained, err := sane.Drained()
		if drained || err == nil || !strings.Contains(err.Error(), "looks dead") {
			t.Fatalf("future-skewed completion masked the dead pool: (%v, %v)", drained, err)
		}
	})
}
