package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestHashMatchesExplicitFraming pins the digest recipe independently of
// the buffering: for random mixes of every component kind — including
// components longer than the frame buffer and mixes that straddle its
// boundary — Sum must equal SHA-256 over the explicitly framed byte
// sequence (len(name), name, len(value), value per component,
// little-endian 64-bit lengths).
func TestHashMatchesExplicitFraming(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randBytes := func() []byte {
		n := rng.Intn(40)
		if rng.Intn(8) == 0 {
			n = hashBufSize - 16 + rng.Intn(3*hashBufSize)
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for trial := 0; trial < 200; trial++ {
		h := NewHash()
		var want []byte
		frame := func(b []byte) {
			want = binary.LittleEndian.AppendUint64(want, uint64(len(b)))
			want = append(want, b...)
		}
		for c := rng.Intn(300); c > 0; c-- {
			name := string(randBytes())
			var v []byte
			switch rng.Intn(4) {
			case 0:
				s := string(randBytes())
				h.String(name, s)
				v = []byte(s)
			case 1:
				v = randBytes()
				h.Bytes(name, v)
			case 2:
				i := rng.Int63() - rng.Int63()
				h.Int(name, i)
				v = binary.LittleEndian.AppendUint64(nil, uint64(i))
			case 3:
				b := rng.Intn(2) == 1
				h.Bool(name, b)
				v = []byte{0}
				if b {
					v[0] = 1
				}
			}
			frame([]byte(name))
			frame(v)
		}
		sum := sha256.Sum256(want)
		if got := h.Sum(); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("trial %d: digest %s, want SHA-256 of the %d framed bytes %x", trial, got, len(want), sum)
		}
	}
}

// TestHashIntsMatchesInt: Ints writes exactly the frames of one Int call
// per value. Runs of every length from a few values to several buffers'
// worth start at every buffer offset, under names from empty to longer
// than the buffer, and each digest equals the one repeated Int calls give.
func TestHashIntsMatchesInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := range 300 {
		name := "seq"
		switch trial % 4 {
		case 1:
			name = ""
		case 2:
			name = string(make([]byte, rng.Intn(2*hashBufSize)))
		}
		vs := make([]int64, rng.Intn(200))
		if trial%5 == 0 {
			vs = make([]int64, rng.Intn(3000))
		}
		for i := range vs {
			vs[i] = rng.Int63() - rng.Int63()
		}
		lead := string(make([]byte, rng.Intn(hashBufSize)))
		batched, single := NewHash(), NewHash()
		batched.String("lead", lead)
		single.String("lead", lead)
		batched.Ints(name, vs)
		for _, v := range vs {
			single.Int(name, v)
		}
		batched.Int("tail", 1)
		single.Int("tail", 1)
		if got, want := batched.Sum(), single.Sum(); got != want {
			t.Fatalf("trial %d (%d values, name of %d bytes, lead of %d): Ints digest %s, Int calls %s",
				trial, len(vs), len(name), len(lead), got, want)
		}
	}
}

// TestHashComponentsDoNotAllocate: folding in a component of any kind
// allocates nothing; only NewHash and Sum do.
func TestHashComponentsDoNotAllocate(t *testing.T) {
	h := NewHash()
	long := make([]byte, 3*hashBufSize)
	seq := make([]int64, 3*hashBufSize)
	allocs := testing.AllocsPerRun(100, func() {
		h.String("label", "seed 2011")
		h.Bytes("template:0", long)
		h.Int("seq", 7)
		h.Ints("seq", seq)
		h.Bool("skip_events", true)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per round of components, want 0", allocs)
	}
}
