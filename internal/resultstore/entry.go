package resultstore

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// Entry is one stored scenario outcome: the raw run and the derived
// summary (absent without baselines); since v4 no ideal baseline is
// stored (see manager.Runner.Ideal). Schema and Key are stamped by Put.
// Since v5 it is stored in the binary layout of EncodeEntry, read back
// in one pass by DecodeEntry; a 2000-app Fig. 9 entry is ~3.5 KB.
type Entry struct {
	Schema int
	Key    string
	// Scenario is a human-readable label for store inspection only; it is
	// not part of the identity (the key is).
	Scenario string

	// ElapsedNS is the measured wall time, in nanoseconds, of simulating
	// this scenario (its own run — not the shared ideal baseline or the
	// design-time phase, which are amortized across a sweep). It is trace
	// and operator metadata, never part of the result: reports and
	// dispatch ignore it.
	ElapsedNS int64

	Run     *Run
	Summary *metrics.Summary
}

// Run is the serializable subset of a manager.Result: every counter and
// timing a report can consume, minus the in-memory-only execution trace
// and template map (trace-recording sweeps bypass the store entirely).
// Completions, the one per-instance field, makes up most of an entry
// (see Completions); every other field is one varint.
//
// A Run that DecodeEntry returns keeps its completions encoded: its
// Completions field is nil, and Result decodes the validated section
// into a fresh slice on each call. Counters, for a reader of counters
// alone, decodes nothing.
type Run struct {
	Makespan    simtime.Time
	Executed    int
	Reused      int
	Loads       int
	Evictions   int
	Skips       int
	ForcedSkips int
	Preloads    int
	Graphs      int
	Completions Completions
	Events      uint64

	// section is the encoded completions of a decoded Run (nil for a Run
	// built in memory, and for a decoded one without times): DecodeEntry
	// has validated it and owns the copy. Result decodes it; EncodeEntry
	// writes it back as it is.
	section []byte
}

// RecordRun captures the serializable fields of a completed run. The
// trace and the template map are dropped — callers that need them must
// not serve the scenario from the store.
func RecordRun(r *manager.Result) *Run {
	if r == nil {
		return nil
	}
	rec := &Run{
		Makespan:    r.Makespan,
		Executed:    r.Executed,
		Reused:      r.Reused,
		Loads:       r.Loads,
		Evictions:   r.Evictions,
		Skips:       r.Skips,
		ForcedSkips: r.ForcedSkips,
		Preloads:    r.Preloads,
		Graphs:      r.Graphs,
		Events:      r.Events,
	}
	if len(r.Completions) > 0 {
		rec.Completions = append([]simtime.Time(nil), r.Completions...)
	}
	return rec
}

// Result reconstructs a manager.Result from the record. Trace and
// Templates are nil — by construction no stored scenario was recorded
// with tracing enabled. The Result shares r's Completions. On a decoded
// Run each call first decodes the stored times into a fresh slice and
// sets r.Completions to it, so two calls never share an array; that
// write makes Result unsafe to call concurrently on one decoded Run.
func (r *Run) Result() *manager.Result {
	res := r.Counters()
	if res == nil {
		return nil
	}
	if r.section != nil {
		r.Completions, _, _ = readCompletions(r.section, true)
	}
	res.Completions = r.Completions
	return res
}

// Counters is Result without the completion times: every counter of the
// run, and nothing decoded.
func (r *Run) Counters() *manager.Result {
	if r == nil {
		return nil
	}
	return &manager.Result{
		Makespan:    r.Makespan,
		Executed:    r.Executed,
		Reused:      r.Reused,
		Loads:       r.Loads,
		Evictions:   r.Evictions,
		Skips:       r.Skips,
		ForcedSkips: r.ForcedSkips,
		Preloads:    r.Preloads,
		Graphs:      r.Graphs,
		Events:      r.Events,
	}
}

// Completions is a run's per-instance completion times, in instance
// order. It makes up most of an entry, yet only per-application delay
// lines read it, so it is stored as deltas (since v3; without the base64
// and the JSON string around them since v5):
//
//   - uvarint n, the number of times; if n > 0,
//   - uvarint g, the GCD of the absolute deltas between consecutive
//     times (1 if every delta is 0), then
//   - for each time, a zigzag varint of (time − previous time) / g,
//     where the first previous time is 0.
//
// Deltas use wrapping uint64 arithmetic, so every int64 sequence —
// unsorted, negative, extreme — round-trips exactly. Simulated times are
// whole milliseconds apart, so g factors out the microsecond unit and
// most deltas fit in a byte or two. An empty list decodes as nil.
//
// DecodeEntry checks a section by every rule of readCompletions but
// does not decode it: most readers of an entry (every grid report) use
// its counters and summary only. Run.Result decodes the kept section.
type Completions []simtime.Time

// entryMagic opens every encoded entry. It tells a v5-or-later entry
// from the JSON of older entries and of artifacts, which open with '{'.
const entryMagic = "RTRe"

// EncodeEntry returns e's stored bytes, as Put writes them. It and
// DecodeEntry are the one definition of the entry layout: code outside
// this package that sees a Backend's raw bytes (a wrapping Backend, a
// test that rewrites entries) goes through them and knows nothing of the
// layout. The layout, in order, with every integer a varint (zigzag for
// signed values) and every string its uvarint byte length then its
// bytes:
//
//	entryMagic, Schema, Key, Scenario, ElapsedNS,
//	one byte 1 and the run, or 0 for no run:
//	  Makespan, Executed, Reused, Loads, Evictions, Skips, ForcedSkips,
//	  Preloads, Graphs, Events (uvarint), Completions (see there),
//	one byte 1 and the summary, or 0 for no summary:
//	  PolicyName, RUs, Latency, Executed, Reused, Loads, Skips,
//	  Makespan, IdealMakespan.
//
// Nothing follows. DecodeEntry accepts exactly the outputs of this
// function, so every accepted input re-encodes to the same bytes; a
// decoded Run's completions are written back from the section it kept.
func EncodeEntry(e *Entry) []byte {
	dst := []byte(entryMagic)
	dst = binary.AppendVarint(dst, int64(e.Schema))
	dst = appendString(dst, e.Key)
	dst = appendString(dst, e.Scenario)
	dst = binary.AppendVarint(dst, e.ElapsedNS)
	if r := e.Run; r == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		for _, v := range [...]int64{int64(r.Makespan), int64(r.Executed), int64(r.Reused),
			int64(r.Loads), int64(r.Evictions), int64(r.Skips), int64(r.ForcedSkips),
			int64(r.Preloads), int64(r.Graphs)} {
			dst = binary.AppendVarint(dst, v)
		}
		dst = binary.AppendUvarint(dst, r.Events)
		if r.section != nil {
			dst = append(dst, r.section...)
		} else {
			dst = r.Completions.appendTo(dst)
		}
	}
	if s := e.Summary; s == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendString(dst, s.PolicyName)
		for _, v := range [...]int64{int64(s.RUs), int64(s.Latency), int64(s.Executed),
			int64(s.Reused), int64(s.Loads), int64(s.Skips), int64(s.Makespan),
			int64(s.IdealMakespan)} {
			dst = binary.AppendVarint(dst, v)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendTo appends the encoding described at Completions.
func (c Completions) appendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c)))
	if len(c) == 0 {
		return dst
	}
	var g, prev uint64
	for _, t := range c {
		g = gcd(g, absDelta(uint64(t)-prev))
		prev = uint64(t)
	}
	if g == 0 {
		g = 1
	}
	dst = binary.AppendUvarint(dst, g)
	prev = 0
	for _, t := range c {
		d := uint64(t) - prev
		q := absDelta(d) / g
		if int64(d) < 0 {
			q = -q
		}
		dst = binary.AppendVarint(dst, int64(q))
		prev = uint64(t)
	}
	return dst
}

// DecodeEntry reads an entry in one pass. It rejects, never panics on,
// anything EncodeEntry could not have written: a wrong magic (so every
// JSON entry of v4 or earlier and every artifact), a truncated,
// overflowing or non-minimal varint, a string or count longer than the
// bytes left, a flag byte other than 0 or 1, malformed completions (see
// readCompletions) and trailing bytes. The completions are validated but
// not decoded: the Run keeps a copy of their section, which Run.Result
// decodes, so allocations are the input's length at most. It does not
// check that the entry is servable (schema, key, run); Get does.
func DecodeEntry(data []byte) (*Entry, bool) {
	if len(data) < len(entryMagic) || string(data[:len(entryMagic)]) != entryMagic {
		return nil, false
	}
	d := decoder{b: data[len(entryMagic):]}
	e := &Entry{
		Schema:    d.int(),
		Key:       d.string(),
		Scenario:  d.string(),
		ElapsedNS: d.varint(),
	}
	if d.flag() {
		e.Run = &Run{
			Makespan:    simtime.Time(d.varint()),
			Executed:    d.int(),
			Reused:      d.int(),
			Loads:       d.int(),
			Evictions:   d.int(),
			Skips:       d.int(),
			ForcedSkips: d.int(),
			Preloads:    d.int(),
			Graphs:      d.int(),
			Events:      d.uvarint(),
			section:     d.completions(),
		}
	}
	if d.flag() {
		e.Summary = &metrics.Summary{
			PolicyName:    d.string(),
			RUs:           d.int(),
			Latency:       simtime.Time(d.varint()),
			Executed:      d.int(),
			Reused:        d.int(),
			Loads:         d.int(),
			Skips:         d.int(),
			Makespan:      simtime.Time(d.varint()),
			IdealMakespan: simtime.Time(d.varint()),
		}
	}
	if d.bad || len(d.b) > 0 {
		return nil, false
	}
	return e, true
}

// decoder reads the fields of an encoded entry in order. The first
// malformed field sets bad and empties b, so every later read fails too
// and returns a zero value; the caller checks bad once at the end.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) fail() {
	d.bad, d.b = true, nil
}

func (d *decoder) uvarint() uint64 {
	v, n := uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// uvarint is binary.Uvarint restricted to minimal encodings: a
// multi-byte one may not end in a zero byte, which would be a longer
// spelling of a smaller value. n <= 0 reports a malformed varint.
func uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
	}
	return int(v)
}

func (d *decoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) flag() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail()
		return false
	}
	f := d.b[0] == 1
	d.b = d.b[1:]
	return f
}

// completions validates the section described at Completions and
// returns a copy of its bytes, or nil when it holds no times.
func (d *decoder) completions() []byte {
	_, rest, ok := readCompletions(d.b, false)
	if !ok {
		d.fail()
		return nil
	}
	var section []byte
	if d.b[0] != 0 { // a count of 0 is the whole section
		section = append([]byte(nil), d.b[:len(d.b)-len(rest)]...)
	}
	d.b = rest
	return section
}

// readCompletions reads the section described at Completions from the
// front of b and returns the bytes after it; with keep it also returns
// the times, an empty list as nil. Without keep it only validates and
// allocates nothing. Beyond the varint rules it rejects a count larger
// than the bytes left (every time takes at least one), g = 0, a g that is
// not the GCD of the deltas (which appendTo would not write) and a
// delta × g that overflows int64.
func readCompletions(b []byte, keep bool) (times Completions, rest []byte, ok bool) {
	n, k := uvarint(b)
	if k <= 0 {
		return nil, nil, false
	}
	b = b[k:]
	if n == 0 {
		return nil, b, true
	}
	g, k := uvarint(b)
	if k <= 0 || g == 0 {
		return nil, nil, false
	}
	b = b[k:]
	if n > uint64(len(b)) {
		return nil, nil, false
	}
	if keep {
		times = make(Completions, n)
	}
	var prev, div uint64 // div: the GCD of the quotients so far
	for i := range n {
		// Nearly every delta takes one or two bytes: read those inline,
		// the rest by uvarint. b[1]-1 < 0x7f is b[1] in 1..0x7f: the
		// byte ends the varint, and a 0 there would not be minimal.
		var u uint64
		var k int
		if len(b) > 0 && b[0] < 0x80 {
			u, k = uint64(b[0]), 1
		} else if len(b) > 1 && b[1]-1 < 0x7f {
			u, k = uint64(b[0]&0x7f)|uint64(b[1])<<7, 2
		} else if u, k = uvarint(b); k <= 0 {
			return nil, nil, false
		}
		b = b[k:]
		// u zigzags the quotient q: q < 0 when neg is 1, and |q| is
		// u>>1 + neg, up to 2^63. Nothing branches on the sign, which
		// is as random as the deltas.
		neg := u & 1
		mag := u>>1 + neg
		if div != 1 {
			div = gcd(div, mag)
		}
		hi, delta := bits.Mul64(mag, g)
		if hi != 0 || delta > math.MaxInt64+neg {
			return nil, nil, false
		}
		prev += delta ^ -neg + neg // −delta when neg
		if keep {
			times[i] = simtime.Time(prev)
		}
	}
	if div > 1 || div == 0 && g != 1 {
		return nil, nil, false
	}
	return times, b, true
}

// absDelta is |int64(d)| for a wrapped delta, as a uint64 so that the
// delta of MinInt64 (2^63) still fits.
func absDelta(d uint64) uint64 {
	if int64(d) < 0 {
		return -d
	}
	return d
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
