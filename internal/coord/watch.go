package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// This file is the merge side of the coordinator protocol: a watch-mode
// merge (`-merge-report -watch`) starts before — or while — the worker
// pool populates the shared result store, renders each report row the
// moment its scenarios are stored, and needs exactly two answers from
// the pool state: "is it finished?" and "is it still alive?". Both come
// from the same evidence workers already leave behind — heartbeats,
// claim timestamps and done records — so watching needs no new protocol,
// no daemon and no cooperation from the workers.

// OpenForMerge opens the pool on behalf of a merge-side consumer (a
// `-coord … -merge-report` or the server's report stream). With wait
// set, an uninitialised pool is polled once a second until a worker
// initialises it or ctx ends — announced once on out — so a watch-mode
// merge may start before the first worker ("launch everywhere, merge
// anywhere, in any order"); the fingerprint check still refuses a merge
// whose flags differ from the pool's the moment the pool exists.
// Without wait, ErrUninitialised passes through for the caller to
// decorate.
func OpenForMerge(ctx context.Context, cfg Config, wait bool, out io.Writer) (*Coordinator, error) {
	announced := false
	for {
		c, err := Open(cfg)
		if !wait || !errors.Is(err, ErrUninitialised) {
			return c, err
		}
		if !announced {
			fmt.Fprintf(out, "merge watch: waiting for a worker to initialise %s\n", cfg.Backend.Location())
			announced = true
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Second):
		}
	}
}

// MergeGate is the whole merge-side drain policy behind
// `-coord … -merge-report [-watch]` and the server's report stream: it
// opens the pool (OpenForMerge — with watch set a
// not-yet-initialised pool is awaited, without it ErrUninitialised is
// decorated with the operator hint), then either starts a background
// PoolWatch printing progress to out (watch: the returned PoolWatch and
// poll interval — the heartbeat interval capped at one second — wire
// straight into a sweep StoreWait, and the caller must Stop the watch
// and Wait for the drain after rendering), or checks the pool has
// already drained and refuses with the per-shard tally otherwise
// (pw == nil in that case).
func MergeGate(cfg Config, watch bool, out io.Writer) (c *Coordinator, pw *PoolWatch, poll time.Duration, err error) {
	return MergeGateContext(context.Background(), cfg, watch, out)
}

// MergeGateContext is MergeGate whose wait for an uninitialised pool
// ends with ctx.
func MergeGateContext(ctx context.Context, cfg Config, watch bool, out io.Writer) (c *Coordinator, pw *PoolWatch, poll time.Duration, err error) {
	c, err = OpenForMerge(ctx, cfg, watch, out)
	if errors.Is(err, ErrUninitialised) {
		return nil, nil, 0, fmt.Errorf("%w — no worker has initialised the pool yet (start the workers, or add -watch to wait for them)", err)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if !watch {
		st, err := c.Status()
		if err != nil {
			return nil, nil, 0, err
		}
		if !st.AllDone() {
			done, leased, pending := st.Counts()
			return nil, nil, 0, fmt.Errorf("coordinator pool %s has not drained (%d done, %d leased, %d pending of %d shards) — wait for the workers, or add -watch to block and render rows as shards land",
				cfg.Backend.Location(), done, leased, pending, c.Shards())
		}
		return c, nil, 0, nil
	}
	poll = c.HeartbeatInterval()
	if poll > time.Second {
		poll = time.Second
	}
	return c, c.WatchPool(out, poll), poll, nil
}

// CheckDrained classifies a Status snapshot for a watcher:
//
//   - (true, nil) once every shard has a completion record — the pool
//     has drained and no further store entries will arrive;
//   - (false, nil) while the pool is live (a heartbeat, claim or
//     completion younger than the lease TTL exists) or has not started
//     (nothing was ever claimed — a watch launched before the first
//     worker waits for the pool to form);
//   - (false, error) when the pool is dead: shards were claimed but the
//     newest proof of life across the whole pool is older than the lease
//     TTL. No worker can still be heartbeating — the same TTL rule that
//     lets surviving workers re-claim a dead worker's shard — so the
//     remaining shards will never finish without operator action, and a
//     watcher must error out rather than poll forever.
//
// The dead verdict deliberately keys on pool-wide evidence, not
// per-shard leases: between finishing one shard and claiming the next a
// healthy worker briefly holds no lease at all, but its last completion
// (or its next claim) keeps the newest-activity clock fresh.
func (c *Coordinator) CheckDrained(st Status) (bool, error) {
	if st.AllDone() {
		return true, nil
	}
	var newest time.Time
	claimed := false
	for _, sh := range st.Shards {
		if sh.Attempts > 0 || sh.State == StateDone {
			claimed = true
		}
		if sh.LastActivity.After(newest) {
			newest = sh.LastActivity
		}
	}
	if !claimed {
		return false, nil // pool forming: no worker has claimed anything yet
	}
	if age := c.now().Sub(newest); age > c.ttl {
		done, leased, pending := st.Counts()
		return false, fmt.Errorf("coord: pool %s looks dead: %d done, %d leased, %d pending, and the newest heartbeat/completion is %v old (lease TTL %v) — no live worker remains; restart workers, then re-run the merge",
			c.Dir(), done, leased, pending, age.Round(time.Millisecond), c.ttl)
	}
	return false, nil
}

// Drained is the one-shot form of CheckDrained over a fresh Status
// snapshot, shaped to serve directly as a sweep StoreWait.Done callback.
// Safe for concurrent use.
func (c *Coordinator) Drained() (bool, error) {
	st, err := c.Status()
	if err != nil {
		return false, err
	}
	return c.CheckDrained(st)
}

// Watcher diffs successive Status snapshots into the operator-facing
// progress lines a watch-mode merge prints to stderr. Line formats are
// stable — the CI watch gate greps them:
//
//	merge watch: DIR: 2/6 shards done, 3 leased, 1 pending
//	merge watch: shard 4 leased by hostA-11 (attempt 1)
//	merge watch: shard 4 done by hostA-11 (attempt 1)
//	merge watch: shard 4 lease expired (last owner hostA-11, attempt 1)
//	merge watch: pool drained: 6 shards done
//
// The counts line prints on the first Tick and whenever the tally
// changes; a per-shard line prints on every state or attempt transition
// (a new attempt on a leased shard means the lease was re-claimed after
// expiry — the self-healing path made visible).
type Watcher struct {
	c       *Coordinator
	prev    []ShardStatus
	counts  string
	settled bool
}

// NewWatcher returns a Watcher over this coordinator's pool.
func (c *Coordinator) NewWatcher() *Watcher { return &Watcher{c: c} }

// Tick snapshots the pool and returns the progress lines describing what
// changed since the previous Tick, plus the drain verdict (see
// CheckDrained; err is the dead-pool or I/O error). Once drained it
// reports (nil, true, nil) forever.
func (w *Watcher) Tick() (lines []string, drained bool, err error) {
	if w.settled {
		return nil, true, nil
	}
	st, err := w.c.Status()
	if err != nil {
		return nil, false, err
	}
	done, leased, pending := st.Counts()
	counts := fmt.Sprintf("merge watch: %s: %d/%d shards done, %d leased, %d pending",
		w.c.Dir(), done, len(st.Shards), leased, pending)
	if counts != w.counts {
		lines = append(lines, counts)
		w.counts = counts
	}
	for i, sh := range st.Shards {
		var prev ShardStatus
		if i < len(w.prev) {
			prev = w.prev[i]
		}
		if sh.State == prev.State && sh.Attempts == prev.Attempts {
			continue
		}
		switch sh.State {
		case StateDone:
			lines = append(lines, fmt.Sprintf("merge watch: shard %d done by %s (attempt %d)", sh.Shard, sh.Owner, sh.Attempts))
		case StateLeased:
			lines = append(lines, fmt.Sprintf("merge watch: shard %d leased by %s (attempt %d)", sh.Shard, sh.Owner, sh.Attempts))
		default:
			if sh.Attempts > 0 {
				lines = append(lines, fmt.Sprintf("merge watch: shard %d lease expired (last owner %s, attempt %d)", sh.Shard, sh.Owner, sh.Attempts))
			}
		}
	}
	w.prev = st.Shards
	drained, err = w.c.CheckDrained(st)
	if drained {
		w.settled = true
		lines = append(lines, fmt.Sprintf("merge watch: pool drained: %d shards done", len(st.Shards)))
	}
	return lines, drained, err
}

// PoolWatch is a background Watcher: one goroutine polls the pool,
// prints progress lines, and caches the latest drain verdict so any
// number of sweep workers can consult Done without each re-reading the
// state directory. Create with WatchPool, release with Stop.
type PoolWatch struct {
	mu      sync.Mutex
	drained bool
	err     error

	settled  chan struct{} // closed once the verdict is final (drained or dead)
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// WatchPool starts a PoolWatch printing progress lines to out every
// interval (≤ 0 means the pool's heartbeat interval). The first poll is
// synchronous, so Done is meaningful immediately. The watch goroutine
// exits on Stop or once the pool settles — drained, dead, or state
// directory unreadable; a settled verdict is final for this watch (a
// pool revived after a dead verdict needs a fresh merge).
func (c *Coordinator) WatchPool(out io.Writer, interval time.Duration) *PoolWatch {
	if interval <= 0 {
		interval = c.heartbeat
	}
	pw := &PoolWatch{settled: make(chan struct{}), stop: make(chan struct{})}
	w := c.NewWatcher()
	tick := func() bool {
		lines, drained, err := w.Tick()
		for _, l := range lines {
			fmt.Fprintln(out, l)
		}
		if err != nil {
			fmt.Fprintln(out, "merge watch:", err)
		}
		pw.mu.Lock()
		pw.drained, pw.err = drained, err
		pw.mu.Unlock()
		if drained || err != nil {
			close(pw.settled)
			return true
		}
		return false
	}
	if tick() {
		return pw
	}
	pw.wg.Add(1)
	go func() {
		defer pw.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-pw.stop:
				return
			case <-t.C:
				if tick() {
					return
				}
			}
		}
	}()
	return pw
}

// Done reports the latest cached verdict, in the shape of a sweep
// StoreWait.Done callback. Safe for concurrent use.
func (pw *PoolWatch) Done() (bool, error) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.drained, pw.err
}

// Wait blocks until the pool settles and returns the final verdict. A
// watch-mode merge can finish rendering marginally before the pool's
// last done record lands (store writes precede completion records);
// waiting here is what makes "-watch blocks until the pool drains" —
// and the final "pool drained" progress line — part of the contract
// rather than a race. Returns early with the latest verdict if Stop is
// called first.
func (pw *PoolWatch) Wait() (bool, error) {
	select {
	case <-pw.settled:
	case <-pw.stop:
	}
	return pw.Done()
}

// Stop ends the background polling and waits for the watch goroutine to
// exit. Idempotent.
func (pw *PoolWatch) Stop() {
	pw.stopOnce.Do(func() { close(pw.stop) })
	pw.wg.Wait()
}
