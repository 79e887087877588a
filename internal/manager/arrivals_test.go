package manager

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/policy"
)

// TestRunLeavesArrivalsUntouched: a run only reads the caller's arrivals.
// In every golden configuration, runs on one shared slice — two at once
// on fresh Runners (under -race any write to the slice is a data race),
// then one on a Runner reused across all configurations — and an ideal
// baseline over it leave the slice equal to a copy taken before them,
// and report what runs on a slice of their own do.
func TestRunLeavesArrivalsUntouched(t *testing.T) {
	reused := NewRunner()
	for _, c := range goldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.RecordTrace = true
			want, err := Run(cfg, c.feed())
			if err != nil {
				t.Fatal(err)
			}
			wantIdeal, err := NewRunner().Ideal(cfg.RUs, c.feed())
			if err != nil {
				t.Fatal(err)
			}
			shared := c.feed()
			before := slices.Clone(shared)

			results := make([]*Result, 3)
			var wg sync.WaitGroup
			for i := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					own := cfg
					own.Policy = policy.Fork(cfg.Policy)
					res, err := NewRunner().Run(own, shared)
					if err != nil {
						t.Error(err)
						return
					}
					results[i] = res
				}()
			}
			wg.Wait()
			if results[2], err = reused.Run(cfg, shared); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(shared, before) {
				t.Fatal("a run wrote to its arrivals")
			}
			for i, got := range results {
				if got == nil || !reflect.DeepEqual(got, want) || runDigest(got) != runDigest(want) {
					t.Errorf("run %d on the shared slice differs from a run on its own slice", i)
				}
			}

			ideal, err := reused.Ideal(cfg.RUs, shared)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(shared, before) {
				t.Fatal("Ideal wrote to its arrivals")
			}
			if !reflect.DeepEqual(ideal, wantIdeal) {
				t.Error("Ideal on the shared slice differs from Ideal on its own slice")
			}
		})
	}
}
