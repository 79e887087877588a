// Package simtime provides the fixed-point time base used throughout the
// simulator.
//
// The paper expresses every latency in milliseconds, and some task execution
// times are fractional (Fig. 2 uses 2.5 ms tasks). To keep the simulation
// exact and deterministic we avoid floating point entirely and count time in
// integer microseconds.
package simtime

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is an instant or duration on the simulated clock, in microseconds.
// The zero value is the simulation epoch.
type Time int64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond

	// Never is a sentinel lying beyond any reachable simulation instant.
	Never Time = math.MaxInt64
)

// maxMs is the largest millisecond magnitude FromMs accepts: beyond it
// the microsecond representation would overflow int64.
const maxMs = float64(math.MaxInt64) / float64(Millisecond)

// FromMs converts a (possibly fractional) millisecond count to a Time.
// It rounds to the nearest microsecond; the paper's inputs are all exact
// multiples of 0.5 ms, so no rounding occurs in practice. Non-finite or
// unrepresentable inputs are programming errors and panic.
func FromMs(ms float64) Time {
	if math.IsNaN(ms) || math.IsInf(ms, 0) || ms > maxMs || ms < -maxMs {
		panic(fmt.Sprintf("simtime: unrepresentable millisecond value %v", ms))
	}
	return Time(math.Round(ms * float64(Millisecond)))
}

// Ms reports t in milliseconds as a float64.
func (t Time) Ms() float64 { return float64(t) / float64(Millisecond) }

// Add returns t+d, saturating at Never so that arithmetic on the sentinel
// stays a sentinel.
func (t Time) Add(d Time) Time {
	if t == Never || d == Never {
		return Never
	}
	s := t + d
	if d > 0 && s < t { // overflow
		return Never
	}
	return s
}

// Sub returns t-d. Subtracting from Never yields Never.
func (t Time) Sub(d Time) Time {
	if t == Never {
		return Never
	}
	return t - d
}

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats the time the way the paper's figures do: as a millisecond
// quantity with the minimal number of decimals ("15 ms", "2.5 ms").
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	neg := t < 0
	v := t
	if neg {
		v = -v
	}
	whole := v / Millisecond
	frac := v % Millisecond
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	b.WriteString(strconv.FormatInt(int64(whole), 10))
	if frac != 0 {
		s := fmt.Sprintf("%03d", frac)
		s = strings.TrimRight(s, "0")
		b.WriteByte('.')
		b.WriteString(s)
	}
	b.WriteString(" ms")
	return b.String()
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
