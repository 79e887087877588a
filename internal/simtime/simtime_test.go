package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromMs(t *testing.T) {
	tests := []struct {
		ms   float64
		want Time
	}{
		{0, 0},
		{1, 1000},
		{2.5, 2500},
		{4, 4000},
		{0.001, 1},
		{79, 79000},
		{-1.5, -1500},
	}
	for _, tt := range tests {
		if got := FromMs(tt.ms); got != tt.want {
			t.Errorf("FromMs(%v) = %d, want %d", tt.ms, got, tt.want)
		}
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		t    Time
		want string
	}{
		{0, "0 ms"},
		{FromMs(4), "4 ms"},
		{FromMs(2.5), "2.5 ms"},
		{FromMs(0.25), "0.25 ms"},
		{FromMs(15), "15 ms"},
		{FromMs(-3.5), "-3.5 ms"},
		{Never, "never"},
		{Microsecond, "0.001 ms"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", tt.t, got, tt.want)
		}
	}
}

func TestAddSaturation(t *testing.T) {
	if got := Never.Add(FromMs(1)); got != Never {
		t.Errorf("Never.Add(1ms) = %v, want Never", got)
	}
	if got := FromMs(1).Add(Never); got != Never {
		t.Errorf("1ms.Add(Never) = %v, want Never", got)
	}
	big := Time(1) << 62
	if got := big.Add(big); got != Never {
		t.Errorf("overflowing Add = %d, want Never", got)
	}
	if got := FromMs(2).Add(FromMs(3)); got != FromMs(5) {
		t.Errorf("2ms+3ms = %v, want 5ms", got)
	}
}

func TestSub(t *testing.T) {
	if got := FromMs(5).Sub(FromMs(2)); got != FromMs(3) {
		t.Errorf("5ms-2ms = %v", got)
	}
	if got := Never.Sub(FromMs(2)); got != Never {
		t.Errorf("Never-2ms = %v, want Never", got)
	}
}

func TestComparisons(t *testing.T) {
	a, b := FromMs(1), FromMs(2)
	if !a.Before(b) || b.Before(a) {
		t.Error("Before misordered")
	}
	if !b.After(a) || a.After(b) {
		t.Error("After misordered")
	}
}

func TestMinMax(t *testing.T) {
	if Max(FromMs(1), FromMs(2)) != FromMs(2) {
		t.Error("Max wrong")
	}
	if Min(FromMs(1), FromMs(2)) != FromMs(1) {
		t.Error("Min wrong")
	}
}

func TestAddSubInverseProperty(t *testing.T) {
	f := func(a, b int32) bool {
		ta, tb := Time(a), Time(b)
		return ta.Add(tb).Sub(tb) == ta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromMsPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromMs(NaN) did not panic")
		}
	}()
	FromMs(math.NaN())
}
