package resultstore

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// Entry is one stored scenario outcome: the raw run and the derived
// summary (absent without baselines); since v4 no ideal baseline is
// stored (see manager.Runner.Ideal). Schema and Key are stamped by Put.
// It is one JSON object, all plain values but the run's completions
// blob; a 2000-app Fig. 9 entry is ~4.9 KB.
type Entry struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	// Scenario is a human-readable label for store inspection only; it is
	// not part of the identity (the key is).
	Scenario string `json:"scenario,omitempty"`

	// ElapsedNS is the measured wall time, in nanoseconds, of simulating
	// this scenario (its own run — not the shared ideal baseline or the
	// design-time phase, which are amortized across a sweep). It is trace
	// and operator metadata, never part of the result: reports and
	// dispatch ignore it.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`

	// Attempts is how many executions the scenario took before this
	// result landed (1 = first try). LastError and RetriedAtNS record the
	// final retried failure and when the winning attempt started, set
	// only when Attempts > 1. Like ElapsedNS these are operational
	// metadata, never part of the result: reports ignore them, so adding
	// them did not bump SchemaVersion (strictly-additive optional fields
	// never do — old entries simply decode with Attempts 0, meaning
	// "recorded before retry bookkeeping existed").
	Attempts    int    `json:"attempts,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	RetriedAtNS int64  `json:"retried_at_ns,omitempty"`

	Run     *Run             `json:"run"`
	Summary *metrics.Summary `json:"summary,omitempty"`
}

// Run is the serializable subset of a manager.Result: every counter and
// timing a report can consume, minus the in-memory-only execution trace
// and template map (trace-recording sweeps bypass the store entirely).
// Completions, the one per-instance field, is stored as a compact blob
// (see Completions); every other field is a plain JSON number.
type Run struct {
	Makespan    simtime.Time `json:"makespan"`
	Executed    int          `json:"executed"`
	Reused      int          `json:"reused"`
	Loads       int          `json:"loads"`
	Evictions   int          `json:"evictions"`
	Skips       int          `json:"skips,omitempty"`
	ForcedSkips int          `json:"forced_skips,omitempty"`
	Preloads    int          `json:"preloads,omitempty"`
	Graphs      int          `json:"graphs"`
	Completions Completions  `json:"completions,omitempty"`
	Events      uint64       `json:"events"`
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
// with tracing enabled. The Result shares r's Completions: callers decode
// a Run only to convert it, so the decoded slice is handed over.
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
		Completions: r.Completions,
		Events:      r.Events,
	}
}

// Completions is a run's per-instance completion times, in instance
// order. It makes up most of an entry, yet only per-application delay
// lines read it, so since schema v3 it is stored as one JSON string
// rather than an array of decimal integers: standard base64 of
//
//   - uvarint g, the GCD of the absolute deltas between consecutive
//     times (1 if every delta is 0), then
//   - for each time, a zigzag varint of (time − previous time) / g,
//     where the first previous time is 0.
//
// Deltas use wrapping uint64 arithmetic, so every int64 sequence —
// unsorted, negative, extreme — round-trips exactly. Simulated times are
// whole milliseconds apart, so g factors out the microsecond unit and
// most deltas fit in a byte or two.
type Completions []simtime.Time

var errCompletions = errors.New("resultstore: malformed completions blob")

// MarshalJSON encodes the times as the schema-v3 blob.
func (c Completions) MarshalJSON() ([]byte, error) {
	var g, prev uint64
	for _, t := range c {
		g = gcd(g, absDelta(uint64(t)-prev))
		prev = uint64(t)
	}
	if g == 0 {
		g = 1
	}
	raw := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+2*len(c)), g)
	prev = 0
	for _, t := range c {
		d := uint64(t) - prev
		q := absDelta(d) / g
		if int64(d) < 0 {
			q = -q
		}
		raw = binary.AppendVarint(raw, int64(q))
		prev = uint64(t)
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(len(raw))+2)
	out[0], out[len(out)-1] = '"', '"'
	base64.StdEncoding.Encode(out[1:len(out)-1], raw)
	return out, nil
}

// UnmarshalJSON decodes the blob straight from the bytes between the
// literal's quotes, without a second JSON scan. A JSON escape is not in
// the base64 alphabet, so a literal carrying one is malformed, as is a
// truncated or overlong varint, g = 0, or a delta × g that overflows
// int64: the error makes the whole entry unservable, never a panic.
func (c *Completions) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return errCompletions
	}
	lit := data[1 : len(data)-1]
	raw := make([]byte, base64.StdEncoding.DecodedLen(len(lit)))
	n, err := base64.StdEncoding.Decode(raw, lit)
	if err != nil {
		return errCompletions
	}
	raw = raw[:n]
	g, k := binary.Uvarint(raw)
	if k <= 0 || g == 0 {
		return errCompletions
	}
	raw = raw[k:]
	count := 0 // one varint per time ends at each byte below 0x80
	for _, b := range raw {
		if b < 0x80 {
			count++
		}
	}
	var out Completions
	if count > 0 {
		out = make(Completions, 0, count)
	}
	var prev uint64
	for len(raw) > 0 {
		q, k := binary.Varint(raw)
		if k <= 0 {
			return errCompletions
		}
		raw = raw[k:]
		mag, limit := uint64(q), uint64(math.MaxInt64)
		if q < 0 {
			mag, limit = -mag, limit+1
		}
		hi, d := bits.Mul64(mag, g)
		if hi != 0 || d > limit {
			return errCompletions
		}
		if q < 0 {
			d = -d
		}
		prev += d
		out = append(out, simtime.Time(prev))
	}
	*c = out
	return nil
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
