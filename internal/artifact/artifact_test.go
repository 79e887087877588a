package artifact

import (
	"reflect"
	"testing"

	"repro/internal/mobility"
	"repro/internal/resultstore"
	"repro/internal/storetest"
	"repro/internal/workload"
)

func resetMobility(t *testing.T) {
	t.Helper()
	mobility.FlushCache()
	mobility.ResetStats()
	t.Cleanup(func() {
		mobility.SetStore(nil)
		mobility.FlushCache()
		mobility.ResetStats()
	})
}

// TestMobilityKeyCanonical: the key is a valid store key, deterministic,
// and sensitive to every input.
func TestMobilityKeyCanonical(t *testing.T) {
	fp := workload.JPEG().Fingerprint()
	lat := workload.PaperLatency()
	key := MobilityKey(fp, 4, lat)
	if len(key) != 64 {
		t.Fatalf("key %q is not canonical 64-hex", key)
	}
	if key != MobilityKey(fp, 4, lat) {
		t.Error("key not deterministic")
	}
	distinct := map[string]bool{
		key:                       true,
		MobilityKey(fp, 5, lat):   true,
		MobilityKey(fp, 4, lat+1): true,
		MobilityKey(workload.MPEG1().Fingerprint(), 4, lat): true,
	}
	if len(distinct) != 4 {
		t.Errorf("key collisions across inputs: %d distinct of 4", len(distinct))
	}
}

// TestTwoProcessReuse is the tentpole's acceptance shape, per backend: a
// cold "process" populates the store; a fresh process (flushed map, new
// store handle over the same data) performs zero mobility computations
// and serves identical tables.
func TestTwoProcessReuse(t *testing.T) {
	for _, bk := range storetest.Backends() {
		t.Run(bk.Name, func(t *testing.T) {
			resetMobility(t)
			store, reopen := bk.Open(t)
			restore := Install(store)
			defer restore()

			pool := workload.Multimedia()
			lat := workload.PaperLatency()
			_, cold, err := mobility.CachedAll(pool, 4, lat)
			if err != nil {
				t.Fatal(err)
			}
			if st := mobility.Stats(); st.Computes != int64(len(pool)) || st.StoreWrites != int64(len(pool)) {
				t.Fatalf("cold stats %+v, want %d computes all written back", st, len(pool))
			}
			if _, _, puts := store.ArtifactStats(); puts != int64(len(pool)) {
				t.Fatalf("store recorded %d artifact writes, want %d", puts, len(pool))
			}

			// Fresh process: new store handle, empty mobility map.
			mobility.FlushCache()
			mobility.ResetStats()
			s2 := reopen(t)
			restore2 := Install(s2)
			defer restore2()
			_, warm, err := mobility.CachedAll(pool, 4, lat)
			if err != nil {
				t.Fatal(err)
			}
			st := mobility.Stats()
			if st.Computes != 0 {
				t.Fatalf("warm process computed %d tables, want 0 (loaded from artifacts)", st.Computes)
			}
			if st.StoreHits != int64(len(pool)) {
				t.Fatalf("warm stats %+v, want %d store hits", st, len(pool))
			}
			for i := range cold {
				if !reflect.DeepEqual(warm[i].Values, cold[i].Values) ||
					warm[i].RefMakespan != cold[i].RefMakespan ||
					warm[i].RUs != cold[i].RUs || warm[i].Latency != cold[i].Latency {
					t.Errorf("table %d served from artifacts diverges from the computed one", i)
				}
			}
		})
	}
}

// TestLoadTableRejectsMismatch: an artifact stored for one template must
// not serve a different one, even if someone files it under the wrong
// key by hand.
func TestLoadTableRejectsMismatch(t *testing.T) {
	resetMobility(t)
	store := resultstore.OpenMem()
	ts := NewTableStore(store)
	jpeg, hough := workload.JPEG(), workload.Hough()
	lat := workload.PaperLatency()
	tab, err := mobility.Compute(jpeg, 4, lat)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.StoreTable(tab); err != nil {
		t.Fatal(err)
	}
	// Honest keys: a different triple is simply a miss.
	if _, ok := ts.LoadTable(jpeg, 5, lat); ok {
		t.Error("table served for a different unit count")
	}
	// Sabotage: move the JPEG payload under Hough's key. The payload
	// validation (graph name, task set) must refuse to serve it.
	a, ok := store.GetArtifact(MobilityKey(jpeg.Fingerprint(), 4, lat), MobilityKind, MobilityVersion)
	if !ok {
		t.Fatal("stored artifact not retrievable")
	}
	wrongKey := MobilityKey(hough.Fingerprint(), 4, lat)
	if err := store.PutArtifact(wrongKey, &resultstore.Artifact{
		Kind: MobilityKind, KindVersion: MobilityVersion, Payload: a.Payload,
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.LoadTable(hough, 4, lat); ok {
		t.Error("mismatched payload served as another template's table")
	}
}

// TestKindVersionInvalidates: bumping MobilityVersion must read old
// artifacts as misses (recompute-and-overwrite, like a schema bump).
func TestKindVersionInvalidates(t *testing.T) {
	resetMobility(t)
	store := resultstore.OpenMem()
	ts := NewTableStore(store)
	g := workload.JPEG()
	lat := workload.PaperLatency()
	tab, err := mobility.Compute(g, 4, lat)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.StoreTable(tab); err != nil {
		t.Fatal(err)
	}
	key := MobilityKey(g.Fingerprint(), 4, lat)
	if _, ok := store.GetArtifact(key, MobilityKind, MobilityVersion+1); ok {
		t.Error("artifact served under a future kind version")
	}
	if _, ok := store.GetArtifact(key, "other-kind", MobilityVersion); ok {
		t.Error("artifact served under a different kind")
	}
}
