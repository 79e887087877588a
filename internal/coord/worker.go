package coord

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// RunStats summarizes one process's share of a pool run.
type RunStats struct {
	// Completed counts the shards this process finished.
	Completed int
	// Recovered counts completions at generation > 1: shards this process
	// re-ran after another worker's lease expired.
	Recovered int
	// LostLeases counts heartbeats that found a newer claim — this
	// process stalled past the TTL on a shard and finished it anyway.
	LostLeases int
}

// Summary renders the one-line epilogue both CLIs print to stderr after
// a successful RunWorkers (and cmd/rtrrepro's TestDriveModes greps —
// keep the format stable, and keep it here so the CLIs cannot drift
// apart).
func (s RunStats) Summary(shards int) string {
	return fmt.Sprintf("coord pool drained: all %d shards done; this process completed %d (%d recovered from expired leases)",
		shards, s.Completed, s.Recovered)
}

// ShardRun is handed to the RunWorkers callback for each claimed shard.
type ShardRun struct {
	// Shard and Count are the claimed slice's coordinates: run
	// sweep.Shard{Index: Shard, Count: Count}.
	Shard, Count int
	// Attempt is the claim generation (1 = first attempt).
	Attempt int
}

// RunWorkers drains the pool: `workers` concurrent claim loops, each
// claiming a shard, running fn on it with heartbeats maintained in the
// background (at a quarter of the lease TTL), marking it done and moving
// on. A loop that finds nothing claimable waits until every shard is
// done: it wakes as soon as a sibling loop of this process finishes a
// shard, and otherwise polls once a heartbeat — covering shards leased
// by other processes and the self-healing case where the only remaining
// shard is leased to a worker that has died and must first expire.
//
// The first fn error stops this process's loops and is returned; the
// erroring shard's lease is left to expire so other processes (or a
// retry of this one) re-claim it. A deterministic per-shard failure thus
// fails each worker that attempts it rather than retrying forever.
//
// fn runs concurrently from multiple loops; everything it shares must be
// safe for that (the sweep executor and result store are).
func (c *Coordinator) RunWorkers(workers int, fn func(ShardRun) error) (RunStats, error) {
	if workers < 1 {
		workers = 1
	}
	interval := c.heartbeat
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}

	var (
		mu       sync.Mutex
		stats    RunStats
		firstErr error
		stop     = make(chan struct{})
		stopOnce sync.Once
		// finished is closed, and replaced, whenever a loop finishes a
		// shard: it wakes the loops idling on that shard's lease.
		finished = make(chan struct{})
	)
	abort := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				// Taken before Claim, so a shard finished after Claim or
				// Status saw it leased still wakes the wait below.
				mu.Lock()
				wake := finished
				mu.Unlock()
				lease, err := c.Claim()
				if err != nil {
					abort(err)
					return
				}
				if lease == nil {
					st, err := c.Status()
					if err != nil {
						abort(err)
						return
					}
					if st.AllDone() {
						return
					}
					select {
					case <-stop:
						return
					case <-wake:
					case <-time.After(interval):
					}
					continue
				}
				lost, err := c.runLeased(lease, interval, fn)
				if err != nil {
					abort(fmt.Errorf("shard %d/%d (attempt %d): %w", lease.Shard, c.shards, lease.Gen, err))
					return
				}
				mu.Lock()
				stats.Completed++
				if lease.Gen > 1 {
					stats.Recovered++
				}
				if lost {
					stats.LostLeases++
				}
				close(finished)
				finished = make(chan struct{})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return stats, firstErr
}

// runLeased executes fn for one lease with a background heartbeat,
// then marks the shard done. A lost lease is reported, not fatal: the
// work completed and the store holds its entries either way.
func (c *Coordinator) runLeased(lease *Lease, interval time.Duration, fn func(ShardRun) error) (lost bool, err error) {
	hbStop := make(chan struct{})
	hbDone := make(chan bool)
	go func() {
		leaseLost := false
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-hbStop:
				hbDone <- leaseLost
				return
			case <-ticker.C:
				if !leaseLost {
					if err := lease.Heartbeat(); errors.Is(err, ErrLeaseLost) {
						leaseLost = true
					}
					// Other heartbeat errors (transient filesystem trouble)
					// are dropped: the next tick retries, and a persistently
					// unreachable state directory surfaces as an expired
					// lease plus a duplicate, idempotent re-run.
				}
			}
		}
	}()
	err = fn(ShardRun{Shard: lease.Shard, Count: c.shards, Attempt: lease.Gen})
	close(hbStop)
	lost = <-hbDone
	if err != nil {
		return lost, err
	}
	return lost, lease.Done()
}
