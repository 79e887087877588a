package campaign

import "testing"

func TestBuildWorkload(t *testing.T) {
	fig2, err := buildWorkload("fig2", 0, 0)
	if err != nil || len(fig2) != 5 {
		t.Errorf("fig2: %d graphs, err %v", len(fig2), err)
	}
	fig3, err := buildWorkload("fig3", 0, 0)
	if err != nil || len(fig3) != 3 {
		t.Errorf("fig3: %d graphs, err %v", len(fig3), err)
	}
	mm, err := buildWorkload("multimedia", 25, 1)
	if err != nil || len(mm) != 25 {
		t.Errorf("multimedia: %d graphs, err %v", len(mm), err)
	}
	// Determinism by seed.
	mm2, err := buildWorkload("multimedia", 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mm {
		if mm[i].Name() != mm2[i].Name() {
			t.Errorf("seeded workload diverged at %d", i)
		}
	}
	if _, err := buildWorkload("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
