package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/simtime"
)

// TestCoordFingerprintGolden pins coordFingerprint by value. The
// fingerprint is persisted in the pool state and in every run and merge
// checkpoint, so a change to it would make workers of two builds refuse
// one pool and stop checkpoints from resuming.
func TestCoordFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		opt  experiments.Options
		ids  []string
		want string
	}{
		{
			opt:  experiments.Options{Seed: 2011, Apps: 120, RUs: []int{4, 5, 6}, Latency: simtime.FromMs(4)},
			ids:  []string{"fig9a", "fig9b"},
			want: "19b6cdd77275ae5dd177cb407193f4b85a300a796fb1c147a39c43293aed75b1",
		},
		{
			opt:  experiments.Options{Seed: 7, Apps: 500, RUs: []int{4, 5, 6, 7, 8, 9, 10}, Latency: simtime.FromMs(2.5)},
			ids:  []string{"fig2", "fig9c", "prefetch"},
			want: "ab4c58e0d7755d46351ef6f6d429a17187d13088d44e7405a631c7787ed363f5",
		},
	} {
		var sel []experiments.Experiment
		for _, id := range tc.ids {
			e, ok := experiments.ByID(id)
			if !ok {
				t.Fatalf("experiment %q missing", id)
			}
			sel = append(sel, e)
		}
		if got := coordFingerprint(tc.opt, sel); got != tc.want {
			t.Errorf("coordFingerprint(%+v, %v) = %s, want %s", tc.opt, tc.ids, got, tc.want)
		}
	}
}
