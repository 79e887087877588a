package resultstore

import (
	"encoding/binary"

	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// Entry is one stored scenario outcome: the run's counters and the
// derived summary (absent without baselines); since v4 no ideal baseline
// is stored (see manager.Runner.Ideal), and since v7 no completion times
// (the summary carries their one reader's digest, metrics.DelayStats).
// Schema and Key are stamped by Put. Since v5 it is stored in the binary
// layout of EncodeEntry, read back in one pass by DecodeEntry; a
// 2000-app Fig. 9 entry is about 176 bytes, whatever the workload's size.
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

// Run is the serializable subset of a manager.Result: every scalar
// counter a report can consume, each one varint. The per-instance
// completion times, the execution trace and the template map stay in
// memory (trace-recording sweeps bypass the store entirely).
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
	Events      uint64
}

// RecordRun captures the serializable fields of a completed run. The
// completion times, the trace and the template map are dropped — callers
// that need them must not serve the scenario from the store.
func RecordRun(r *manager.Result) *Run {
	if r == nil {
		return nil
	}
	return &Run{
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

// Result reconstructs a manager.Result from the record: every counter,
// and nil Completions and Trace.
func (r *Run) Result() *manager.Result {
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
//	  Preloads, Graphs, Events (uvarint),
//	one byte 1 and the summary, or 0 for no summary:
//	  PolicyName, RUs, Latency, Executed, Reused, Loads, Skips,
//	  Makespan, IdealMakespan, and the Delay digest's Count, Mean, Max,
//	  P50 and P95.
//
// Nothing follows. DecodeEntry accepts exactly the outputs of this
// function, so every accepted input re-encodes to the same bytes.
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
	}
	if s := e.Summary; s == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendString(dst, s.PolicyName)
		for _, v := range [...]int64{int64(s.RUs), int64(s.Latency), int64(s.Executed),
			int64(s.Reused), int64(s.Loads), int64(s.Skips), int64(s.Makespan),
			int64(s.IdealMakespan), int64(s.Delay.Count), int64(s.Delay.Mean),
			int64(s.Delay.Max), int64(s.Delay.P50), int64(s.Delay.P95)} {
			dst = binary.AppendVarint(dst, v)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// DecodeEntry reads an entry in one pass. It rejects, never panics on,
// anything EncodeEntry could not have written: a wrong magic (so every
// JSON entry of v4 or earlier and every artifact), a truncated,
// overflowing or non-minimal varint, a string longer than the bytes
// left, a flag byte other than 0 or 1, an int out of range and
// trailing bytes. It does not check that the entry is servable (schema,
// key, run); Get does.
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
			Delay: metrics.DelayStats{
				Count: d.int(),
				Mean:  simtime.Time(d.varint()),
				Max:   simtime.Time(d.varint()),
				P50:   simtime.Time(d.varint()),
				P95:   simtime.Time(d.varint()),
			},
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
