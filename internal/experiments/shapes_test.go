package experiments

import (
	"testing"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// evalShape runs one configuration over the shared reduced workload and
// returns its summary.
func evalShape(t *testing.T, pool, seq []*taskgraph.Graph, rus int, pol policy.Policy, skip bool) *metrics.Summary {
	t.Helper()
	lat := workload.PaperLatency()
	cfg := manager.Config{RUs: rus, Latency: lat, Policy: pol, SkipEvents: skip}
	if skip {
		lookup, _, err := mobility.CachedAll(pool, rus, lat)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mobility = lookup
	}
	res, err := manager.Run(cfg, dynlist.NewSequence(seq...))
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := manager.Run(manager.Config{RUs: rus, Latency: 0, Policy: policy.NewLRU()},
		dynlist.NewSequence(seq...))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := metrics.Summarize(pol.Name(), rus, lat, res, ideal)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestPaperShapeClaims verifies the qualitative claims of Section VI on a
// reduced but statistically meaningful workload (200 apps):
//
//  1. LFD reuse ≥ every ASAP policy's reuse (Belady optimality within the
//     no-delay regime);
//  2. Local LFD reuse grows with the Dynamic List window toward LFD;
//  3. LRU reuse is far below LFD;
//  4. skip events lift Local LFD(1) reuse above plain Local LFD(1) and
//     above LFD (the paper's "better than the optimum" observation);
//  5. at the paper's high-contention point (R=4), Local LFD + skip leaves
//     less remaining overhead than LFD.
func TestPaperShapeClaims(t *testing.T) {
	opt := Options{Seed: 2011, Apps: 200, Latency: workload.PaperLatency(), RUs: []int{4}}
	pool, seq, err := opt.Workload()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(w int) policy.Policy {
		p, err := policy.NewLocalLFD(w)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, rus := range []int{4, 6, 8} {
		lru := evalShape(t, pool, seq, rus, policy.NewLRU(), false)
		lfd := evalShape(t, pool, seq, rus, policy.NewLFD(), false)
		l1 := evalShape(t, pool, seq, rus, mk(1), false)
		l2 := evalShape(t, pool, seq, rus, mk(2), false)
		l4 := evalShape(t, pool, seq, rus, mk(4), false)
		l1skip := evalShape(t, pool, seq, rus, mk(1), true)

		// Claim 1: LFD tops every ASAP policy.
		for _, s := range []*metrics.Summary{lru, l1, l2, l4} {
			if s.ReuseRate() > lfd.ReuseRate()+1e-9 {
				t.Errorf("R=%d: %s reuse %.2f%% exceeds LFD %.2f%%",
					rus, s.PolicyName, s.ReuseRate(), lfd.ReuseRate())
			}
		}
		// Claim 2: monotone in the window (allowing exact ties).
		if l1.ReuseRate() > l2.ReuseRate()+1e-9 || l2.ReuseRate() > l4.ReuseRate()+1e-9 {
			t.Errorf("R=%d: window monotonicity violated: %.2f / %.2f / %.2f",
				rus, l1.ReuseRate(), l2.ReuseRate(), l4.ReuseRate())
		}
		// Claim 3: LRU well below LFD.
		if lru.ReuseRate() >= lfd.ReuseRate() {
			t.Errorf("R=%d: LRU %.2f%% not below LFD %.2f%%", rus, lru.ReuseRate(), lfd.ReuseRate())
		}
		// Claim 4: skip events add reuse at high contention.
		if rus == 4 {
			if l1skip.ReuseRate() <= l1.ReuseRate() {
				t.Errorf("R=4: skip did not lift reuse: %.2f%% vs %.2f%%",
					l1skip.ReuseRate(), l1.ReuseRate())
			}
			if l1skip.ReuseRate() <= lfd.ReuseRate() {
				t.Errorf("R=4: skip reuse %.2f%% did not exceed LFD %.2f%% (paper's Fig. 9b)",
					l1skip.ReuseRate(), lfd.ReuseRate())
			}
			// Claim 5: and it reduces remaining overhead below LFD's.
			if l1skip.RemainingOverheadPct() >= lfd.RemainingOverheadPct() {
				t.Errorf("R=4: skip remaining %.2f%% not below LFD %.2f%% (paper's Fig. 9c)",
					l1skip.RemainingOverheadPct(), lfd.RemainingOverheadPct())
			}
		}
	}
}

// TestLFDOptimalAmongNoDelayPolicies is a broader property check: over
// several seeds, no classic policy beats clairvoyant LFD on reuse in the
// ASAP (no-delay) regime.
func TestLFDOptimalAmongNoDelayPolicies(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		opt := Options{Seed: seed, Apps: 80, Latency: workload.PaperLatency(), RUs: []int{4}}
		pool, seq, err := opt.Workload()
		if err != nil {
			t.Fatal(err)
		}
		lfd := evalShape(t, pool, seq, 5, policy.NewLFD(), false)
		for _, pol := range []policy.Policy{
			policy.NewLRU(), policy.NewFIFO(), policy.NewMRU(), policy.NewRandom(seed),
		} {
			s := evalShape(t, pool, seq, 5, pol, false)
			if s.ReuseRate() > lfd.ReuseRate()+1e-9 {
				t.Errorf("seed %d: %s reuse %.2f%% beats LFD %.2f%%",
					seed, pol.Name(), s.ReuseRate(), lfd.ReuseRate())
			}
		}
	}
}
