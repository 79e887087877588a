package coord

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a race-safe writer for PoolWatch's background goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestCheckDrainedLifecycle walks the drain verdict through every pool
// state on the fake clock: forming (nothing claimed → wait), live
// (fresh heartbeats → wait), between-claims gap (only a recent
// completion as proof of life → still wait), dead (every proof of life
// older than the TTL → error), drained (all done → true).
func TestCheckDrainedLifecycle(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	c := openTest(t, dir, 2, "w", clk)

	drained, err := c.Drained()
	if drained || err != nil {
		t.Fatalf("forming pool: drained=%v err=%v, want wait", drained, err)
	}

	lease, err := c.Claim()
	if err != nil || lease == nil {
		t.Fatal(lease, err)
	}
	if drained, err := c.Drained(); drained || err != nil {
		t.Fatalf("live lease: drained=%v err=%v, want wait", drained, err)
	}

	// The worker completes its shard and is between claims: no lease is
	// live, but the completion timestamp keeps the pool alive.
	if err := lease.Done(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(c.LeaseTTL() / 2)
	if drained, err := c.Drained(); drained || err != nil {
		t.Fatalf("between claims: drained=%v err=%v, want wait", drained, err)
	}

	// The worker claims the second shard and dies: once its heartbeat is
	// older than the TTL the whole pool is evidence-dead.
	lease2, err := c.Claim()
	if err != nil || lease2 == nil {
		t.Fatal(lease2, err)
	}
	clk.Advance(c.LeaseTTL() + time.Second)
	drained, err = c.Drained()
	if drained {
		t.Fatal("dead pool reported drained")
	}
	if err == nil || !strings.Contains(err.Error(), "looks dead") {
		t.Fatalf("dead pool verdict = %v, want a pointed 'looks dead' error", err)
	}

	// A surviving worker re-claims (generation 2) and finishes: drained.
	lease3, err := c.Claim()
	if err != nil || lease3 == nil {
		t.Fatal(lease3, err)
	}
	if lease3.Shard != lease2.Shard || lease3.Gen != 2 {
		t.Fatalf("re-claim got shard %d gen %d, want shard %d gen 2", lease3.Shard, lease3.Gen, lease2.Shard)
	}
	if err := lease3.Done(); err != nil {
		t.Fatal(err)
	}
	if drained, err := c.Drained(); !drained || err != nil {
		t.Fatalf("finished pool: drained=%v err=%v, want true", drained, err)
	}
}

// TestCheckDrainedClampsFutureCompletions: a done record stamped by a
// worker whose clock runs more than one TTL fast must not keep a dead
// pool looking alive for the whole skew — the same clamp inspect applies
// to heartbeats. The skewed completion contributes no liveness evidence,
// so once the genuinely-claimed shard's lease ages past the TTL the pool
// is declared dead after one TTL of real time, not after the skew.
func TestCheckDrainedClampsFutureCompletions(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	c := openTest(t, dir, 2, "sane", clk)

	// A worker with a far-future clock completes shard 0.
	skewedBack := NewFS(dir)
	skewedBack.Clock = func() time.Time { return clk.Now().Add(48 * time.Hour) }
	skewed, err := Open(Config{Backend: skewedBack, Owner: "skewed"})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := skewed.Claim()
	if err != nil || lease == nil {
		t.Fatal(lease, err)
	}
	if err := lease.Done(); err != nil {
		t.Fatal(err)
	}

	// A sane worker claims shard 1 and dies. Its lease is the pool's only
	// real evidence; once it expires the pool must read dead despite the
	// 48-hours-from-now completion record.
	lease2, err := c.Claim()
	if err != nil || lease2 == nil {
		t.Fatal(lease2, err)
	}
	clk.Advance(c.LeaseTTL() + time.Second)
	drained, err := c.Drained()
	if drained {
		t.Fatal("dead pool reported drained")
	}
	if err == nil || !strings.Contains(err.Error(), "looks dead") {
		t.Fatalf("future-skewed completion masked the dead pool: verdict = %v", err)
	}
}

// TestWatcherProgressLines pins the stderr lines a watch-mode merge
// prints (the CI watch gate greps the counts and drained formats): one
// counts line whenever the tally changes, one line per shard transition
// — leased, done, lease expired, re-leased at the next attempt — and
// the final drained line.
func TestWatcherProgressLines(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	c := openTest(t, dir, 2, "hostA-1", clk)
	w := c.NewWatcher()

	tick := func() []string {
		t.Helper()
		lines, _, err := w.Tick()
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	mustContain := func(lines []string, wants ...string) {
		t.Helper()
		for _, want := range wants {
			found := false
			for _, l := range lines {
				if strings.Contains(l, want) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("lines %q miss %q", lines, want)
			}
		}
	}

	mustContain(tick(), "merge watch: "+dir+": 0/2 shards done, 0 leased, 2 pending")
	if lines := tick(); len(lines) != 0 {
		t.Errorf("idle tick emitted %q", lines)
	}

	lease, err := c.Claim()
	if err != nil || lease == nil {
		t.Fatal(lease, err)
	}
	mustContain(tick(), "0/2 shards done, 1 leased, 1 pending",
		"merge watch: shard 0 leased by hostA-1 (attempt 1)")

	// The leaseholder dies. The expiry tick reports the transition AND
	// the dead-pool verdict (no other worker is alive to keep the pool's
	// evidence fresh) — a watcher on a genuinely dead pool errors here.
	clk.Advance(c.LeaseTTL() + time.Second)
	expLines, expDrained, expErr := w.Tick()
	if expDrained || expErr == nil || !strings.Contains(expErr.Error(), "looks dead") {
		t.Fatalf("expiry tick = (drained=%v, err=%v), want the dead verdict", expDrained, expErr)
	}
	mustContain(expLines, "merge watch: shard 0 lease expired (last owner hostA-1, attempt 1)")
	lease2, err := c.Claim()
	if err != nil || lease2 == nil || lease2.Gen != 2 {
		t.Fatal(lease2, err)
	}
	mustContain(tick(), "merge watch: shard 0 leased by hostA-1 (attempt 2)")

	if err := lease2.Done(); err != nil {
		t.Fatal(err)
	}
	lease3, err := c.Claim()
	if err != nil || lease3 == nil {
		t.Fatal(lease3, err)
	}
	if err := lease3.Done(); err != nil {
		t.Fatal(err)
	}
	lines, drained, err := w.Tick()
	if err != nil || !drained {
		t.Fatalf("drained=%v err=%v, want drained", drained, err)
	}
	mustContain(lines, "2/2 shards done",
		"merge watch: shard 0 done by hostA-1 (attempt 2)",
		"merge watch: shard 1 done by hostA-1 (attempt 1)",
		"merge watch: pool drained: 2 shards done")

	// Settled: nothing more, forever.
	lines, drained, err = w.Tick()
	if len(lines) != 0 || !drained || err != nil {
		t.Errorf("settled tick = (%q, %v, %v), want silence", lines, drained, err)
	}
}

// TestPoolWatchDoneVerdict drives the background watcher end to end on
// real (short) time: Done flips to drained once the pool finishes, and
// the printed transcript carries the per-shard lines.
func TestPoolWatchDoneVerdict(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Backend: NewFS(dir), Shards: 1, Owner: "w", LeaseTTL: time.Minute, Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	pw := c.WatchPool(&out, 5*time.Millisecond)
	defer pw.Stop()
	if drained, err := pw.Done(); drained || err != nil {
		t.Fatalf("fresh pool: drained=%v err=%v", drained, err)
	}
	lease, err := c.Claim()
	if err != nil || lease == nil {
		t.Fatal(lease, err)
	}
	if err := lease.Done(); err != nil {
		t.Fatal(err)
	}
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		if drained, err := pw.Wait(); !drained || err != nil {
			t.Errorf("Wait = (%v, %v), want the drained verdict", drained, err)
		}
	}()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("PoolWatch.Wait never reported the drained pool")
	}
	pw.Stop()
	if got := out.String(); !strings.Contains(got, "pool drained: 1 shards done") {
		t.Errorf("transcript %q misses the drained line", got)
	}
}

// TestOpenForMergeUninitialised: without wait, ErrUninitialised passes
// straight through for the CLI to decorate; with wait, the one
// announcement names the pool being waited for.
func TestOpenForMergeUninitialised(t *testing.T) {
	var out syncBuffer
	_, err := OpenForMerge(context.Background(), Config{Backend: NewFS(t.TempDir())}, false, &out)
	if err == nil || !strings.Contains(err.Error(), "not initialised") {
		t.Fatalf("err = %v, want ErrUninitialised through", err)
	}
	if out.String() != "" {
		t.Errorf("non-wait open wrote %q", out.String())
	}

	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := OpenForMerge(ctx, Config{Backend: NewFS(dir)}, true, &out); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait open = %v, want the context's end", err)
	}
	if want := "merge watch: waiting for a worker to initialise " + dir + "\n"; out.String() != want {
		t.Errorf("wait open wrote %q, want %q", out.String(), want)
	}
}
