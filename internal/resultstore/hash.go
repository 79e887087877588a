package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Hash accumulates the canonical config hash of one scenario. Every
// component is framed as (len(name), name, len(value), value), so
// adjacent fields can never alias each other ("ab"+"c" vs "a"+"bc") and
// the digest is a function of the labeled component sequence alone —
// stable across processes, platforms and Go versions.
//
// The component order is fixed by the caller; internal/sweep's golden
// hash test pins the resulting digests so any accidental change to the
// recipe (which would silently invalidate or, worse, mis-hit every
// store) fails loudly.
//
// Frames accumulate in a fixed buffer that feeds SHA-256 in large
// writes, so folding in a component allocates nothing; the digest is the
// same as writing each frame straight through.
type Hash struct {
	h   hash.Hash
	n   int // bytes pending in buf
	buf [hashBufSize]byte
}

// hashBufSize is the size of a Hash's frame buffer: large enough that a
// workload key's thousands of small frames reach SHA-256 in a few dozen
// writes, small enough to allocate per key.
const hashBufSize = 1024

// NewHash starts a canonical config hash. The schema version is
// deliberately NOT part of the key: a key identifies a configuration,
// while the schema version (recorded inside each entry) governs whether
// a stored outcome is still servable. Keeping keys stable across schema
// bumps means a bump's re-simulation overwrites old entries in place
// instead of orphaning them.
func NewHash() *Hash {
	return &Hash{h: sha256.New()}
}

// flush feeds the buffered frames to SHA-256.
func (h *Hash) flush() {
	h.h.Write(h.buf[:h.n])
	h.n = 0
}

// frame appends one (len, bytes) frame to h's buffer, flushing as it
// fills; a component longer than the buffer passes through in chunks.
func frame[T string | []byte](h *Hash, v T) {
	if h.n+8 > len(h.buf) {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], uint64(len(v)))
	h.n += 8
	for len(v) > 0 {
		if h.n == len(h.buf) {
			h.flush()
		}
		c := copy(h.buf[h.n:], v)
		h.n += c
		v = v[c:]
	}
}

// Bytes folds in a named binary component.
func (h *Hash) Bytes(name string, v []byte) {
	frame(h, name)
	frame(h, v)
}

// String folds in a named string component.
func (h *Hash) String(name, v string) {
	frame(h, name)
	frame(h, v)
}

// Int folds in a named integer component.
func (h *Hash) Int(name string, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Bytes(name, b[:])
}

// Bool folds in a named flag.
func (h *Hash) Bool(name string, v bool) {
	var b [1]byte
	if v {
		b[0] = 1
	}
	h.Bytes(name, b[:])
}

// Float folds in a named float component via its IEEE-754 bits.
func (h *Hash) Float(name string, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Bytes(name, b[:])
}

// Sum finalizes the digest as lowercase hex. The Hash must not be used
// afterwards.
func (h *Hash) Sum() string {
	h.flush()
	return hex.EncodeToString(h.h.Sum(nil))
}
