package resultstore

import (
	"bytes"
	"encoding/binary"
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

// packTimes and unpackTimes map a []simtime.Time to the fuzzer's []byte
// and back: eight little-endian bytes per time, a ragged tail dropped.
func packTimes(ts ...simtime.Time) []byte {
	b := make([]byte, 0, 8*len(ts))
	for _, t := range ts {
		b = binary.LittleEndian.AppendUint64(b, uint64(t))
	}
	return b
}

func unpackTimes(b []byte) Completions {
	var ts Completions
	for ; len(b) >= 8; b = b[8:] {
		ts = append(ts, simtime.Time(binary.LittleEndian.Uint64(b)))
	}
	return ts
}

// decodeCompletions reads one completions section that must make up the
// whole of b: it validates it as DecodeEntry does, then decodes the kept
// section as Run.Result does.
func decodeCompletions(b []byte) (Completions, bool) {
	d := decoder{b: b}
	r := &Run{section: d.completions()}
	if d.bad || len(d.b) != 0 {
		return nil, false
	}
	return r.Result().Completions, true
}

// FuzzCompletions pins the completions part of the entry codec. Any
// sequence of times round-trips exactly through an encoded entry, and
// any completions section either decodes or is rejected, never panics;
// a section that decodes re-encodes to the same bytes.
func FuzzCompletions(f *testing.F) {
	ms := simtime.FromMs
	for _, seq := range [][]simtime.Time{
		{},
		{ms(30)},
		{ms(30), ms(70), ms(71), ms(120), ms(4000)},
		{ms(90), ms(60), ms(10), 0, -ms(5)},
		{ms(7), ms(7), ms(7), ms(7)},
		{math.MinInt64, math.MaxInt64, 0, math.MinInt64},
		{math.MaxInt64, math.MaxInt64, -1, math.MinInt64 + 1},
		{math.MinInt64, math.MinInt64},
	} {
		f.Add(packTimes(seq...), Completions(seq).appendTo(nil))
	}
	g62 := binary.AppendUvarint([]byte{1}, 1<<62)
	f.Add([]byte(nil), []byte{1, 0, 2})             // g = 0
	f.Add([]byte(nil), []byte{1, 1, 0x80})          // truncated varint
	f.Add([]byte(nil), []byte{2, 2, 4, 4})          // g is not the GCD
	f.Add([]byte(nil), append(slices.Clip(g62), 4)) // 2 × 2^62 overflows
	f.Add([]byte(nil), append(slices.Clip(g62), 3)) // -2 × 2^62 is MinInt64, but g is not the GCD

	f.Fuzz(func(t *testing.T, packed []byte, section []byte) {
		want := unpackTimes(packed)
		e := sampleEntry()
		e.Run.Completions = want
		back, ok := DecodeEntry(EncodeEntry(e))
		if !ok || !slices.Equal(back.Run.Result().Completions, want) {
			t.Fatalf("round trip of %v gave %v (ok %v)", want, back, ok)
		}

		got, ok := decodeCompletions(section)
		if !ok {
			return
		}
		if again := got.appendTo(nil); !bytes.Equal(again, section) {
			t.Fatalf("section %x decoded to %v, which re-encodes to %x", section, got, again)
		}
	})
}

// TestCompletionsMalformed names each way a completions section or the
// entry around it can be malformed: every one is rejected by the codec
// and, inside a stored entry, a miss.
func TestCompletionsMalformed(t *testing.T) {
	g62 := binary.AppendUvarint([]byte{1}, 1<<62)
	for name, section := range map[string][]byte{
		"empty":                  {},
		"g = 0":                  {1, 0, 2},
		"missing g":              {1},
		"truncated varint":       {1, 1, 0x80},
		"overflow":               append(slices.Clip(g62), 4),
		"negative overflow":      append(slices.Clip(g62), 5),
		"overlong varint":        {1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"non-minimal varint":     {1, 1, 0x82, 0x00},
		"non-minimal count":      {0x81, 0x00, 1, 2},
		"count beyond the bytes": {5, 1, 2, 2},
		"huge count":             {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 2},
		"g is not the GCD":       {2, 2, 4, 4},
		"zero deltas, g ≠ 1":     {2, 5, 0, 0},
	} {
		if c, ok := decodeCompletions(section); ok {
			t.Errorf("%s: %x decoded to %v", name, section, c)
		}
	}

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
	for name, data := range map[string][]byte{
		"trailing byte": append(slices.Clip(good), 0),
		"wrong magic":   append([]byte("RTRf"), good[len(entryMagic):]...),
		"flag byte 2":   withFlag(2),
		"v4 JSON entry": fmt.Appendf(nil, `{"schema":4,"key":%q,"run":{"makespan":70000,"executed":15,"graphs":3,"completions":"kE4GCAE=","events":42}}`, key),
	} {
		if _, ok := DecodeEntry(data); ok {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, ok := DecodeEntry(withFlag(0)); !ok {
		t.Error("an entry without a summary did not decode")
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
	section := sampleEntry().Run.Completions.appendTo(nil)
	if bytes.Count(data, section) != 1 {
		t.Fatalf("entry %x does not hold the section %x exactly once", data, section)
	}
	if err := os.WriteFile(p, bytes.Replace(data, section, []byte{2, 0, 6, 8}, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Error("entry with malformed completions served")
	}
}

// TestCompletionsEncoding pins the byte layout for a short sequence, so a
// change to the format cannot pass unnoticed as a mere round trip: 3
// times, g = 10000 µs (every delta is a multiple of 10 ms), then the
// deltas 3, 4 and -1 in units of g, zigzagged to 6, 8 and 1.
func TestCompletionsEncoding(t *testing.T) {
	ms := simtime.FromMs
	got := Completions{ms(30), ms(70), ms(60)}.appendTo(nil)
	if want := "03904e060801"; hex.EncodeToString(got) != want {
		t.Errorf("encoding = %x, want %s", got, want)
	}
	if got := Completions(nil).appendTo(nil); !bytes.Equal(got, []byte{0}) {
		t.Errorf("no times encode as %x, want 00", got)
	}
}

// TestEntryEncoding pins a whole entry's layout, field by field.
func TestEntryEncoding(t *testing.T) {
	e := &Entry{
		Schema: 6, Key: "k", Scenario: "é", ElapsedNS: 3,
		Run: &Run{
			Makespan: 100, Executed: 1, Reused: 2, Loads: 3, Evictions: 4,
			Skips: 5, ForcedSkips: 6, Preloads: 7, Graphs: 8, Events: 300,
			Completions: Completions{100},
		},
		Summary: &metrics.Summary{
			PolicyName: "P", RUs: 4, Latency: 9, Executed: 1, Reused: 2,
			Loads: 3, Skips: 5, Makespan: 100, IdealMakespan: -2,
		},
	}
	want := strings.Join([]string{
		hex.EncodeToString([]byte(entryMagic)),
		"0c",               // schema 6
		"016b",             // key "k"
		"02c3a9",           // scenario "é"
		"06",               // elapsed 3
		"01",               // a run follows
		"c801",             // makespan 100
		"020406080a0c0e10", // executed 1 … graphs 8
		"ac02",             // events 300, a uvarint
		"016402",           // 1 time, g = 100, delta 1
		"01",               // a summary follows
		"0150",             // policy "P"
		"08120204060a",     // RUs 4, latency 9, executed 1 … skips 5
		"c80103",           // makespan 100, ideal -2
	}, "")
	if got := hex.EncodeToString(EncodeEntry(e)); got != want {
		t.Errorf("encoding\n got %s\nwant %s", got, want)
	}
}

// Generate lets testing/quick draw a *Run (nil about as often as quick
// draws a nil pointer): quick cannot set the unexported section, so it
// draws each exported field and leaves the section nil, as on every Run
// built in memory.
func (*Run) Generate(rng *rand.Rand, size int) reflect.Value {
	if rng.Intn(size) == 0 {
		return reflect.ValueOf((*Run)(nil))
	}
	r := reflect.New(reflect.TypeOf(Run{}))
	for i := range r.Elem().NumField() {
		if f := r.Elem().Field(i); f.CanSet() {
			v, ok := quick.Value(f.Type(), rng)
			if !ok {
				panic("quick cannot generate " + f.Type().String())
			}
			f.Set(v)
		}
	}
	return r
}

// materialized returns a decoded entry as it compares with the entry it
// was encoded from: the run's completions read out as Run.Result reads
// them, and the kept section dropped.
func materialized(e *Entry) Entry {
	m := *e
	if e.Run != nil {
		r := *e.Run
		r.Completions, r.section = e.Run.Result().Completions, nil
		m.Run = &r
	}
	return m
}

// normalized returns e as DecodeEntry returns it: no completions decode
// as nil.
func normalized(e Entry) Entry {
	if e.Run != nil && len(e.Run.Completions) == 0 {
		r := *e.Run
		r.Completions = nil
		e.Run = &r
	}
	return e
}

// TestEntryRoundTrip is the codec's property test: every entry, random
// or built to reach an edge, decodes from its encoding to itself, and
// the decoded entry shares no memory with the bytes it came from. The
// decoded run holds no completion times until Result decodes them, and
// it re-encodes to the same bytes either way.
func TestEntryRoundTrip(t *testing.T) {
	ms := simtime.FromMs
	full := func(edit func(*Entry)) Entry {
		e := *sampleEntry()
		r := *e.Run
		e.Run = &r
		edit(&e)
		return e
	}
	cases := []Entry{
		{},
		full(func(e *Entry) { e.Run.Completions = nil }),
		full(func(e *Entry) { e.Run.Completions = Completions{} }),
		full(func(e *Entry) { e.Run.Completions = Completions{ms(90), ms(60), 0, -ms(5), ms(7)} }),
		full(func(e *Entry) {
			e.Run.Completions = Completions{math.MinInt64, math.MaxInt64, 0, math.MinInt64, -1}
			e.Run.Makespan, e.Run.Events = math.MinInt64, math.MaxUint64
			e.ElapsedNS = math.MaxInt64
		}),
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
		if got.Run != nil && got.Run.Completions != nil {
			t.Fatalf("case %d: DecodeEntry decoded the completions %v", i, got.Run.Completions)
		}
		if want := normalized(e); !reflect.DeepEqual(materialized(got), want) {
			t.Fatalf("case %d: round trip\n got %+v\nwant %+v", i, materialized(got), want)
		}
		if again := EncodeEntry(got); !bytes.Equal(again, data) {
			t.Fatalf("case %d: a decoded entry re-encodes to %x, not %x", i, again, data)
		}
		if got.Run != nil && len(got.Run.Completions) > 0 {
			clear(data)
			if want := normalized(e); !slices.Equal(got.Run.Result().Completions, want.Run.Completions) {
				t.Fatalf("case %d: decoded completions alias the input bytes", i)
			}
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

// BenchmarkStoreGet measures the store-Load layer: one Get of an fs entry
// whose run carries 2000 completions, the size of a Fig. 9 scenario.
// disk-B is the entry's size on disk, and MB/s counts those bytes
// decoded.
func BenchmarkStoreGet(b *testing.B) {
	rng := rand.New(rand.NewSource(2011))
	completions := func() []simtime.Time {
		ts := make([]simtime.Time, 2000)
		var now simtime.Time
		for i := range ts {
			now += simtime.FromMs(float64(rng.Intn(40)))
			ts[i] = now - simtime.FromMs(float64(rng.Intn(20)))
		}
		return ts
	}
	e := sampleEntry()
	e.Run.Completions = completions()
	e.ElapsedNS = 123456789
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
