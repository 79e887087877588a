package resultstore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

func testKey(seed byte) string {
	b := make([]byte, 0, 64)
	for i := 0; i < 64; i++ {
		b = append(b, "0123456789abcdef"[(int(seed)+i)%16])
	}
	return string(b)
}

func sampleEntry() *Entry {
	return &Entry{
		Scenario: "LRU R=4 latency=4 ms",
		Run: &Run{
			Makespan: simtime.FromMs(70), Executed: 15, Reused: 5, Loads: 10,
			Evictions: 6, Skips: 1, Graphs: 3, Events: 42,
		},
		Summary: &metrics.Summary{
			PolicyName: "LRU", RUs: 4, Latency: simtime.FromMs(4),
			Executed: 15, Reused: 5, Loads: 10, Skips: 1,
			Makespan: simtime.FromMs(70), IdealMakespan: simtime.FromMs(50),
			Delay: metrics.DelayStats{
				Count: 2, Mean: simtime.FromMs(15), Max: simtime.FromMs(20),
				P50: simtime.FromMs(10), P95: simtime.FromMs(20),
			},
		},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	want := sampleEntry()
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Schema != SchemaVersion || got.Key != key {
		t.Errorf("entry stamped schema=%d key=%q", got.Schema, got.Key)
	}
	if !reflect.DeepEqual(got.Run, want.Run) || !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Errorf("round trip mutated the entry:\ngot  %+v\nwant %+v", got, want)
	}
	hits, misses, puts := s.Stats()
	if hits != 1 || misses != 1 || puts != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/1/1", hits, misses, puts)
	}
	if !strings.Contains(s.SummaryLine(), "1 hits, 1 misses, 1 entries written") {
		t.Errorf("summary line %q", s.SummaryLine())
	}
}

func TestGetRejectsBadEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	write := func(key string, mutate func(*Entry)) {
		t.Helper()
		e := sampleEntry()
		if err := s.Put(key, e); err != nil {
			t.Fatal(err)
		}
		e.Schema = SchemaVersion // Put stamped it; apply the corruption
		mutate(e)
		data := EncodeEntry(e)
		p := filepath.Join(dir, "objects", key[:2], key+".json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	stale := testKey(2)
	write(stale, func(e *Entry) { e.Schema = SchemaVersion + 1 })
	if _, ok := s.Get(stale); ok {
		t.Error("stale-schema entry served")
	}

	wrongKey := testKey(3)
	write(wrongKey, func(e *Entry) { e.Key = testKey(4) })
	if _, ok := s.Get(wrongKey); ok {
		t.Error("entry with mismatched key served")
	}

	noRun := testKey(5)
	write(noRun, func(e *Entry) { e.Run = nil })
	if _, ok := s.Get(noRun); ok {
		t.Error("entry without a run served")
	}

	corrupt := testKey(6)
	if err := s.Put(corrupt, sampleEntry()); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "objects", corrupt[:2], corrupt+".json")
	if err := os.WriteFile(p, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(corrupt); ok {
		t.Error("corrupt entry served")
	}
}

func TestGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, stale, corrupt := testKey(7), testKey(8), testKey(9)
	for _, k := range []string{good, stale, corrupt} {
		if err := s.Put(k, sampleEntry()); err != nil {
			t.Fatal(err)
		}
	}
	// Rewrite one entry under a future schema and truncate another.
	e := sampleEntry()
	e.Schema = SchemaVersion + 1
	e.Key = stale
	data := EncodeEntry(e)
	if err := os.WriteFile(filepath.Join(dir, "objects", stale[:2], stale+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects", corrupt[:2], corrupt+".json"), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A leftover temp file from an interrupted write.
	if err := os.WriteFile(filepath.Join(dir, "objects", good[:2], ".leftover.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != 1 || st.Removed != 3 {
		t.Errorf("gc kept %d removed %d, want 1/3", st.Kept, st.Removed)
	}
	if _, ok := s.Get(good); !ok {
		t.Error("gc removed a valid entry")
	}
	if _, ok := s.Get(stale); ok {
		t.Error("gc left a stale entry servable")
	}
}

func TestOpenAndKeyValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open accepted an empty dir")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	traversal := "__/" + testKey(1)[3:] // right length, path separator inside
	for _, bad := range []string{"", "ab", "abcd", "../../../../etc/passwd", traversal, testKey(1) + "00"} {
		if err := s.Put(bad, sampleEntry()); err == nil {
			t.Errorf("Put accepted malformed key %q", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Errorf("Get hit on malformed key %q", bad)
		}
	}
}

func TestPutFailureIsRecorded(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Any failing write path records the degradation; a malformed key is
	// the one that fails identically on every platform and as any user.
	if err := s.Put("abcd", sampleEntry()); err == nil {
		t.Fatal("malformed key accepted")
	}
	if _, _, puts := s.Stats(); puts != 0 {
		t.Error("failed write counted as a put")
	}
	if !strings.Contains(s.SummaryLine(), "1 writes FAILED") {
		t.Errorf("summary line hides the failure: %q", s.SummaryLine())
	}
	if err := s.Put(testKey(1), sampleEntry()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.SummaryLine(), "1 entries written") ||
		!strings.Contains(s.SummaryLine(), "1 writes FAILED") {
		t.Errorf("summary line after recovery: %q", s.SummaryLine())
	}
}

func TestRunRecordRoundTrip(t *testing.T) {
	orig := &manager.Result{
		Makespan: simtime.FromMs(123), Executed: 9, Reused: 4, Loads: 5,
		Evictions: 2, Skips: 1, ForcedSkips: 1, Preloads: 3, Graphs: 2,
		Completions: []simtime.Time{simtime.FromMs(60), simtime.FromMs(123)},
		Events:      77,
	}
	back := RecordRun(orig).Result()
	if back.Completions != nil || back.Trace != nil {
		t.Error("reconstructed result carries completions or trace")
	}
	want := *orig
	want.Completions = nil // never serialized
	if !reflect.DeepEqual(*back, want) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", back, want)
	}
	if RecordRun(nil) != nil || (*Run)(nil).Result() != nil {
		t.Error("nil round trip not nil")
	}
	// The delay digest of those times travels in the summary instead.
	ideal := &manager.Result{Executed: 9, Makespan: simtime.FromMs(100),
		Completions: []simtime.Time{simtime.FromMs(40), simtime.FromMs(100)}}
	sum, err := metrics.Summarize("LRU", 4, simtime.FromMs(4), orig, ideal)
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	key := testKey(2)
	if err := s.Put(key, &Entry{Run: RecordRun(orig), Summary: sum}); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if d, _ := metrics.Delays(orig, ideal); got.Summary.Delay != *d || d.Count != 2 {
		t.Errorf("stored delay digest %+v, want %+v", got.Summary.Delay, *d)
	}
}

// TestProbeMatchesGetServability: Probe must serve exactly what Get
// serves — while counting hits only, never misses, the property that
// keeps a watch merge's polling invisible in the store digest.
func TestProbeMatchesGetServability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(4)
	if _, ok := s.Probe(key); ok {
		t.Error("Probe served from an empty store")
	}
	if _, ok := s.Probe("not-a-key"); ok {
		t.Error("Probe served a malformed key")
	}
	if err := s.Put(key, sampleEntry()); err != nil {
		t.Fatal(err)
	}
	ent, ok := s.Probe(key)
	if !ok || ent.Run == nil || ent.Scenario != sampleEntry().Scenario {
		t.Errorf("Probe of a fresh entry = (%+v, %v), want the full entry", ent, ok)
	}

	// A stale-schema or run-less rewrite is unservable for both.
	p := filepath.Join(dir, "objects", key[:2], key+".json")
	for name, corrupt := range map[string]func(e *Entry){
		"stale schema": func(e *Entry) { e.Schema = SchemaVersion + 1 },
		"missing run":  func(e *Entry) { e.Run = nil },
	} {
		e := sampleEntry()
		e.Schema, e.Key = SchemaVersion, key
		corrupt(e)
		data := EncodeEntry(e)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Probe(key); ok {
			t.Errorf("%s: Probe served where Get would miss", name)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("%s: Get served it after all — Probe and Get disagree", name)
		}
	}

	// Accounting: the one successful Probe is a hit; the four failed
	// probes count nothing; only the two deliberate Get calls are misses.
	hits, misses, puts := s.Stats()
	if hits != 1 || misses != 2 || puts != 1 {
		t.Errorf("stats hits=%d misses=%d puts=%d, want 1/2/1 — Probe must count hits only", hits, misses, puts)
	}
}

func TestHashFramingAndDeterminism(t *testing.T) {
	digest := func(build func(*Hash)) string {
		h := NewHash()
		build(h)
		return h.Sum()
	}
	base := digest(func(h *Hash) { h.String("a", "bc") })
	if base != digest(func(h *Hash) { h.String("a", "bc") }) {
		t.Error("hash not deterministic")
	}
	for name, other := range map[string]func(*Hash){
		"field split": func(h *Hash) { h.String("ab", "c") },
		"name/value":  func(h *Hash) { h.String("abc", "") },
		"extra field": func(h *Hash) { h.String("a", "bc"); h.Bool("x", false) },
		"int vs str":  func(h *Hash) { h.Int("a", 0x6362) },
		"empty":       func(*Hash) {},
	} {
		if got := digest(other); got == base {
			t.Errorf("%s collides with base digest", name)
		}
	}
	if len(base) != 64 {
		t.Errorf("digest length %d, want 64 hex chars", len(base))
	}
}
