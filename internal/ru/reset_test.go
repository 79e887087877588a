package ru

import (
	"testing"

	"repro/internal/simtime"
)

// TestArrayReset: a reset array is indistinguishable from a new one —
// empty units, nothing resident, cleared counters — including when
// shrinking or growing.
func TestArrayReset(t *testing.T) {
	a, err := NewArray(4)
	if err != nil {
		t.Fatal(err)
	}
	a.Install(0, 7, simtime.FromMs(1))
	a.Install(3, 9, simtime.FromMs(2))
	for _, n := range []int{4, 2, 6} {
		if err := a.Reset(n); err != nil {
			t.Fatal(err)
		}
		if a.Len() != n {
			t.Fatalf("Reset(%d): len = %d", n, a.Len())
		}
		if _, ok := a.Find(7); ok {
			t.Fatalf("Reset(%d): residency survived", n)
		}
		if i, ok := a.FirstEmpty(); !ok || i != 0 {
			t.Fatalf("Reset(%d): first empty = %d,%v", n, i, ok)
		}
		if a.TotalLoads() != 0 || a.TotalReuses() != 0 {
			t.Fatalf("Reset(%d): counters survived", n)
		}
		a.Install(0, 7, simtime.FromMs(1))
	}
	if err := a.Reset(0); err == nil {
		t.Error("Reset accepted 0 units")
	}
}

// TestReconfiguratorReset clears in-flight state and counters and applies
// the new latency.
func TestReconfiguratorReset(t *testing.T) {
	r, err := NewReconfigurator(simtime.FromMs(4))
	if err != nil {
		t.Fatal(err)
	}
	r.Begin(5, 1, 0)
	if err := r.Reset(simtime.FromMs(2)); err != nil {
		t.Fatal(err)
	}
	if !r.Idle() || r.Loads() != 0 || r.BusyTotal() != 0 {
		t.Fatalf("state survived Reset: idle=%v loads=%d busy=%v", r.Idle(), r.Loads(), r.BusyTotal())
	}
	if r.Latency() != simtime.FromMs(2) {
		t.Errorf("latency = %v, want 2ms", r.Latency())
	}
	if end := r.Begin(6, 0, 0); end != simtime.FromMs(2) {
		t.Errorf("load end = %v, want 2ms", end)
	}
	if err := r.Reset(-1); err == nil {
		t.Error("Reset accepted negative latency")
	}
}

// TestArrayResetShrinkHidesTail: after a shrinking Reset, the units past
// the new length keep their old state in the backing array, but Find
// never looks at them, and growing back empties them.
func TestArrayResetShrinkHidesTail(t *testing.T) {
	a, err := NewArray(4)
	if err != nil {
		t.Fatal(err)
	}
	a.Install(3, 9, simtime.FromMs(1))
	if err := a.Reset(2); err != nil {
		t.Fatal(err)
	}
	if i, ok := a.Find(9); ok {
		t.Fatalf("Find(9) after Reset(2) = %d, want not found", i)
	}
	if err := a.Reset(4); err != nil {
		t.Fatal(err)
	}
	if i, ok := a.Find(9); ok {
		t.Fatalf("Find(9) after growing back = %d, want not found", i)
	}
}
