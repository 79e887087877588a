package resultstore

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

// TestEntryMalformed names each way an entry can be malformed: every
// one is rejected by the codec, and inside a stored entry it is a miss.
func TestEntryMalformed(t *testing.T) {
	key := testKey(1)
	e := sampleEntry()
	e.Schema, e.Key = SchemaVersion, key
	good := EncodeEntry(e)
	if _, ok := decodeServable(key, good); !ok {
		t.Fatal("sample entry not servable")
	}
	for i := range good {
		if _, ok := DecodeEntry(good[:i]); ok {
			t.Errorf("entry truncated to %d of %d bytes decoded", i, len(good))
		}
	}
	withFlag := func(flag byte) []byte {
		e := *e
		e.Summary = nil
		b := EncodeEntry(&e)
		b[len(b)-1] = flag
		return b
	}
	// zeroP95 ends in the delay digest's p95, 0, spelled as given: a
	// spelling other than the one byte 00 must be rejected.
	zeroP95 := func(spelling ...byte) []byte {
		e := *e
		s := *e.Summary
		s.Delay.P95 = 0
		e.Summary = &s
		b := EncodeEntry(&e)
		return append(b[:len(b)-1], spelling...)
	}
	for name, data := range map[string][]byte{
		"trailing byte":      append(slices.Clip(good), 0),
		"wrong magic":        append([]byte("RTRf"), good[len(entryMagic):]...),
		"flag byte 2":        withFlag(2),
		"non-minimal varint": zeroP95(0x80, 0x00),
		"overlong varint":    zeroP95(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"string too long":    append(slices.Clip(good[:len(entryMagic)+1]), 0x7f),
		"v4 JSON entry":      fmt.Appendf(nil, `{"schema":4,"key":%q,"run":{"makespan":70000,"executed":15,"graphs":3,"completions":"kE4GCAE=","events":42}}`, key),
	} {
		if _, ok := DecodeEntry(data); ok {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, ok := DecodeEntry(withFlag(0)); !ok {
		t.Error("an entry without a summary did not decode")
	}
	if _, ok := DecodeEntry(zeroP95(0)); !ok {
		t.Error("an entry with a zero p95 did not decode")
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, sampleEntry()); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "objects", key[:2], key+".json")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, append(data, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Error("entry with a trailing byte served")
	}
}

// TestEntryEncoding pins a whole entry's layout, field by field.
func TestEntryEncoding(t *testing.T) {
	e := &Entry{
		Schema: 7, Key: "k", Scenario: "é", ElapsedNS: 3,
		Run: &Run{
			Makespan: 100, Executed: 1, Reused: 2, Loads: 3, Evictions: 4,
			Skips: 5, ForcedSkips: 6, Preloads: 7, Graphs: 8, Events: 300,
		},
		Summary: &metrics.Summary{
			PolicyName: "P", RUs: 4, Latency: 9, Executed: 1, Reused: 2,
			Loads: 3, Skips: 5, Makespan: 100, IdealMakespan: -2,
			Delay: metrics.DelayStats{Count: 1, Mean: 64, Max: 102, P50: 64, P95: -1},
		},
	}
	want := strings.Join([]string{
		hex.EncodeToString([]byte(entryMagic)),
		"0e",               // schema 7
		"016b",             // key "k"
		"02c3a9",           // scenario "é"
		"06",               // elapsed 3
		"01",               // a run follows
		"c801",             // makespan 100
		"020406080a0c0e10", // executed 1 … graphs 8
		"ac02",             // events 300, a uvarint
		"01",               // a summary follows
		"0150",             // policy "P"
		"08120204060a",     // RUs 4, latency 9, executed 1 … skips 5
		"c80103",           // makespan 100, ideal -2
		"02",               // delay count 1
		"8001cc018001",     // mean 64, max 102, p50 64
		"01",               // p95 -1
	}, "")
	if got := hex.EncodeToString(EncodeEntry(e)); got != want {
		t.Errorf("encoding\n got %s\nwant %s", got, want)
	}
}

// TestEntryRoundTrip is the codec's property test: every entry, random
// or built to reach an edge, decodes from its encoding to itself and
// re-encodes to the same bytes, and the decoded entry shares no memory
// with the bytes it came from.
func TestEntryRoundTrip(t *testing.T) {
	full := func(edit func(*Entry)) Entry {
		e := *sampleEntry()
		r, s := *e.Run, *e.Summary
		e.Run, e.Summary = &r, &s
		edit(&e)
		return e
	}
	cases := []Entry{
		{},
		full(func(e *Entry) { e.Summary.Delay = metrics.DelayStats{} }),
		full(func(e *Entry) {
			e.Summary.Delay = metrics.DelayStats{Count: -3, Mean: -1, Max: math.MinInt64, P50: -simtime.FromMs(5), P95: math.MaxInt64}
		}),
		full(func(e *Entry) {
			e.Run.Makespan, e.Run.Events = math.MinInt64, math.MaxUint64
			e.ElapsedNS = math.MaxInt64
			e.Summary.Delay = metrics.DelayStats{Count: math.MaxInt, Mean: math.MaxInt64, Max: math.MaxInt64, P50: math.MinInt64, P95: math.MinInt64}
		}),
		full(func(e *Entry) { e.Summary.Delay.Count = math.MinInt }),
		full(func(e *Entry) { e.Summary = nil }),
		full(func(e *Entry) { e.Run = nil }),
		full(func(e *Entry) {
			e.Scenario = strings.Repeat("Local LFD + Skip Events, R=9 — ", 4000)
			e.Summary.PolicyName = "日本語 ✓ \x00\xff"
		}),
	}
	rng := rand.New(rand.NewSource(2011))
	for range 500 {
		v, ok := quick.Value(reflect.TypeOf(Entry{}), rng)
		if !ok {
			t.Fatal("quick cannot generate an Entry")
		}
		cases = append(cases, v.Interface().(Entry))
	}
	for i, e := range cases {
		data := EncodeEntry(&e)
		got, ok := DecodeEntry(data)
		if !ok {
			t.Fatalf("case %d: %+v did not decode from %x", i, e, data)
		}
		if again := EncodeEntry(got); !bytes.Equal(again, data) {
			t.Fatalf("case %d: a decoded entry re-encodes to %x, not %x", i, again, data)
		}
		clear(data)
		if !reflect.DeepEqual(*got, e) {
			t.Fatalf("case %d: round trip\n got %+v\nwant %+v", i, *got, e)
		}
	}
}

// FuzzDecodeEntry: no input panics the decoder, and an input it accepts
// re-encodes to the same bytes, so the layout has one spelling per entry.
func FuzzDecodeEntry(f *testing.F) {
	e := sampleEntry()
	e.Schema, e.Key = SchemaVersion, testKey(1)
	good := EncodeEntry(e)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(EncodeEntry(&Entry{}))
	e.Summary = nil
	f.Add(EncodeEntry(e))
	f.Add([]byte(`{"schema":4,"key":"x","run":{"completions":"kE4GCAE="}}`))
	f.Add([]byte(entryMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, ok := DecodeEntry(data)
		if !ok {
			return
		}
		if again := EncodeEntry(e); !bytes.Equal(again, data) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x", data, e, again)
		}
	})
}

// fig9Entry is the entry of a 2000-application Fig. 9 scenario.
func fig9Entry() *Entry {
	e := sampleEntry()
	e.Run.Executed, e.Run.Events = 6213, 38542
	e.Summary.Executed = e.Run.Executed
	e.Summary.Delay = metrics.DelayStats{Count: 2000, Mean: 81234, Max: 412000, P50: 76000, P95: 196000}
	e.ElapsedNS = 123456789
	return e
}

// BenchmarkStoreGet measures the store-Load layer: one Get of an fs entry
// of a 2000-application Fig. 9 scenario (an entry's size no longer grows
// with the workload). disk-B is the entry's size on disk, and MB/s
// counts those bytes decoded.
func BenchmarkStoreGet(b *testing.B) {
	e := fig9Entry()
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	key := testKey(1)
	if err := s.Put(key, e); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "objects", key[:2], key+".json"))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := s.Get(key); !ok {
			b.Fatal("miss")
		}
	}
	b.ReportMetric(float64(fi.Size()), "disk-B")
}

// BenchmarkFSLoad measures the fs backend's read alone: one Load hit on
// the file of a 2000-application Fig. 9 entry (about 176 bytes), with
// no decoding.
func BenchmarkFSLoad(b *testing.B) {
	fsb, err := NewFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e := fig9Entry()
	key := testKey(1)
	e.Schema, e.Key = SchemaVersion, key
	data := EncodeEntry(e)
	if err := fsb.Store(key, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := fsb.Load(key); !ok {
			b.Fatal("miss")
		}
	}
	b.ReportMetric(float64(len(data)), "disk-B")
}
