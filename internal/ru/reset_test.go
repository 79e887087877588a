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
		for i := range n {
			if u := a.Unit(i); u.Loads != 0 || u.Reuses != 0 {
				t.Fatalf("Reset(%d): unit %d counters survived", n, i)
			}
		}
		a.Install(0, 7, simtime.FromMs(1))
	}
	if err := a.Reset(0); err == nil {
		t.Error("Reset accepted 0 units")
	}
}

// TestReconfiguratorReset clears in-flight state: after a Reset the
// circuitry is idle and takes a new load.
func TestReconfiguratorReset(t *testing.T) {
	var r Reconfigurator
	r.BeginLatency(5, 1, 0, simtime.FromMs(4))
	r.Reset()
	if !r.Idle() {
		t.Fatal("in-flight load survived Reset")
	}
	if _, active := r.End(); active {
		t.Error("End reports a load after Reset")
	}
	if end := r.BeginLatency(6, 0, 0, simtime.FromMs(2)); end != simtime.FromMs(2) {
		t.Errorf("load end = %v, want 2ms", end)
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
