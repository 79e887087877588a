package main

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/resultstore"
)

func TestStoreFlagResolution(t *testing.T) {
	if s, err := resultstore.OpenIfSet("", false); err != nil || s != nil {
		t.Errorf("empty dir: store %v, err %v", s, err)
	}
	if s, err := resultstore.OpenIfSet(t.TempDir(), true); err != nil || s != nil {
		t.Errorf("-no-store: store %v, err %v", s, err)
	}
	s, err := resultstore.OpenIfSet(t.TempDir(), false)
	if err != nil || s == nil {
		t.Fatalf("valid dir: store %v, err %v", s, err)
	}
	if hits, misses, puts := s.Stats(); hits+misses+puts != 0 {
		t.Error("fresh store has non-zero stats")
	}
	if _, err := resultstore.RunGC(nil); err == nil {
		t.Error("-store-gc without a store accepted")
	}
	line, err := resultstore.RunGC(s)
	if err != nil {
		t.Fatal(err)
	}
	if line != "store gc: removed 0 stale entries, kept 0 ("+s.Dir()+")" {
		t.Errorf("gc line %q", line)
	}
}

func TestBuildWorkload(t *testing.T) {
	fig2, err := campaign.BuildWorkload("fig2", 0, 0)
	if err != nil || len(fig2) != 5 {
		t.Errorf("fig2: %d graphs, err %v", len(fig2), err)
	}
	fig3, err := campaign.BuildWorkload("fig3", 0, 0)
	if err != nil || len(fig3) != 3 {
		t.Errorf("fig3: %d graphs, err %v", len(fig3), err)
	}
	mm, err := campaign.BuildWorkload("multimedia", 25, 1)
	if err != nil || len(mm) != 25 {
		t.Errorf("multimedia: %d graphs, err %v", len(mm), err)
	}
	// Determinism by seed.
	mm2, err := campaign.BuildWorkload("multimedia", 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mm {
		if mm[i].Name() != mm2[i].Name() {
			t.Errorf("seeded workload diverged at %d", i)
		}
	}
	if _, err := campaign.BuildWorkload("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
