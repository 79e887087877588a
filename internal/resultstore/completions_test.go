package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

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

// FuzzCompletions pins the schema-v3 completions codec. Any sequence of
// times round-trips exactly through an encoded Run (MarshalJSON's output
// must also be a JSON string encoding/json accepts), and any blob either
// decodes or returns an error, never panics; a blob that decodes
// re-encodes to the same times.
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
		blob, err := Completions(seq).MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(packTimes(seq...), string(blob[1:len(blob)-1]))
	}
	f.Add([]byte(nil), "AA==")             // g = 0
	f.Add([]byte(nil), "AYA=")             // truncated varint
	f.Add([]byte(nil), `\u0041Q==`)        // an escape inside the literal
	f.Add([]byte(nil), "gICAgICAgIBABA==") // 2 × 2^62 overflows
	f.Add([]byte(nil), "gICAgICAgIBAAw==") // -2 × 2^62 is MinInt64

	f.Fuzz(func(t *testing.T, packed []byte, blob string) {
		want := unpackTimes(packed)
		data, err := json.Marshal(&Run{Completions: want})
		if err != nil {
			t.Fatalf("marshal %v: %v", want, err)
		}
		var back Run
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !slices.Equal(back.Completions, want) {
			t.Fatalf("round trip of %v via %s gave %v", want, data, back.Completions)
		}

		var got Completions
		if err := got.UnmarshalJSON([]byte(`"` + blob + `"`)); err != nil {
			return
		}
		again, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var re Completions
		if err := re.UnmarshalJSON(again); err != nil || !slices.Equal(re, got) {
			t.Fatalf("blob %q decoded to %v, but its re-encoding %s gave %v, %v", blob, got, again, re, err)
		}
	})
}

// TestCompletionsMalformed names each way a blob can be malformed: every
// one is an error from the codec and, inside an entry, a miss.
func TestCompletionsMalformed(t *testing.T) {
	for name, lit := range map[string]string{
		"v2 integer array":  `[30000,70000]`,
		"number":            `12`,
		"null":              `null`,
		"empty string":      `""`,
		"bad base64":        `"A*=="`,
		"escape":            `"\u0041Q=="`,
		"g = 0":             `"AA=="`,
		"truncated varint":  `"AYA="`,
		"overflow":          `"gICAgICAgIBABA=="`,
		"negative overflow": `"gICAgICAgIBABQ=="`,
		"overlong varint":   `"AYCAgICAgICAgIAB"`,
	} {
		var c Completions
		if err := c.UnmarshalJSON([]byte(lit)); err == nil {
			t.Errorf("%s: %s decoded to %v", name, lit, c)
		}
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if err := s.Put(key, sampleEntry()); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "objects", key[:2], key+".json")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sampleEntry().Run.Completions.MarshalJSON()
	if err != nil || !bytes.Contains(data, blob) {
		t.Fatalf("entry %s does not hold the blob %s (%v)", data, blob, err)
	}
	if err := os.WriteFile(p, bytes.Replace(data, blob, []byte(`"AA=="`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Error("entry with a malformed completions blob served")
	}
}

// TestCompletionsEncoding pins the byte layout for a short sequence, so a
// change to the format cannot pass unnoticed as a mere round trip: g =
// 10000 µs (every delta is a multiple of 10 ms), then the deltas 3, 4
// and -1 in units of g, zigzagged to 6, 8 and 1.
func TestCompletionsEncoding(t *testing.T) {
	ms := simtime.FromMs
	got, err := Completions{ms(30), ms(70), ms(60)}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := `"kE4GCAE="`; string(got) != want {
		t.Errorf("encoding = %s, want %s", got, want)
	}
}

// BenchmarkStoreGet measures the store-Load layer: one Get of an fs entry
// whose run carries 2000 completions, the size of a Fig. 9 scenario in
// the v4 shape (no embedded ideal baseline). disk-B is the entry's size
// on disk, and MB/s counts those bytes decoded.
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
