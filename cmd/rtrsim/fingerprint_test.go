package main

import (
	"math/rand"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TestSweepFingerprintGolden pins sweepFingerprint by value. The
// fingerprint is persisted in the pool state and in every run and merge
// checkpoint, so a change to it would make workers of two builds refuse
// one pool and stop checkpoints from resuming.
func TestSweepFingerprintGolden(t *testing.T) {
	multimedia, err := dynlist.RandomSequence(workload.Multimedia(), 40, rand.New(rand.NewSource(2011)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		wl       string
		seq      []*taskgraph.Graph
		policies string
		skip     bool
		prefetch bool
		rus      []int
		want     string
	}{
		{wl: "fig2", seq: workload.Fig2Sequence(), policies: "lru,lfd", rus: []int{4, 5}, want: "8b7f68dabaee365dd501082b04066ec5ccceb6085434445c63a336066ed9add2"},
		{wl: "multimedia", seq: multimedia, policies: "locallfd:1,random:3", skip: true, prefetch: true, rus: []int{4, 6}, want: "4395bef886229bcc5f29e64b6a16270a33ce10d288382216a4be600bd876a659"},
	} {
		policies, err := sweep.ParsePolicies(tc.policies, tc.skip)
		if err != nil {
			t.Fatal(err)
		}
		for i := range policies {
			policies[i].CrossGraphPrefetch = tc.prefetch
		}
		spec := sweep.Spec{
			Workloads: []sweep.Workload{{Seq: tc.seq}},
			RUs:       tc.rus,
			Latencies: []simtime.Time{simtime.FromMs(4)},
			Policies:  policies,
		}
		got, err := sweepFingerprint(tc.wl, &spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("sweepFingerprint(%s, %s) = %s, want %s", tc.wl, tc.policies, got, tc.want)
		}
	}
}
