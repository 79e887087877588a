package ru

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

func mustArray(t *testing.T, n int) *Array {
	t.Helper()
	a, err := NewArray(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(0); err == nil {
		t.Error("NewArray(0) should fail")
	}
	if _, err := NewArray(-3); err == nil {
		t.Error("NewArray(-3) should fail")
	}
	a := mustArray(t, 4)
	if a.Len() != 4 {
		t.Errorf("Len = %d, want 4", a.Len())
	}
}

func TestInstallAndFind(t *testing.T) {
	a := mustArray(t, 2)
	if _, ok := a.Find(7); ok {
		t.Error("Find on empty array")
	}
	i, ok := a.FirstEmpty()
	if !ok || i != 0 {
		t.Fatalf("FirstEmpty = %d,%v, want 0,true", i, ok)
	}
	if ev := a.Install(0, 7, ms(1)); ev != taskgraph.NoTask {
		t.Errorf("evicted %d from empty unit", ev)
	}
	if i, ok := a.Find(7); !ok || i != 0 {
		t.Errorf("Find(7) = %d,%v", i, ok)
	}
	i, ok = a.FirstEmpty()
	if !ok || i != 1 {
		t.Fatalf("FirstEmpty after one install = %d,%v", i, ok)
	}
	a.Install(1, 8, ms(2))
	if _, ok := a.FirstEmpty(); ok {
		t.Error("FirstEmpty on full array")
	}
	// Replacement evicts: the old task is no longer found.
	if ev := a.Install(0, 9, ms(3)); ev != 7 {
		t.Errorf("evicted %d, want 7", ev)
	}
	if _, ok := a.Find(7); ok {
		t.Error("evicted task still resident")
	}
	if i, ok := a.Find(9); !ok || i != 0 {
		t.Errorf("Find(9) = %d,%v", i, ok)
	}
	if l0, l1 := a.Unit(0).Loads, a.Unit(1).Loads; l0 != 2 || l1 != 1 {
		t.Errorf("Loads = %d, %d, want 2, 1", l0, l1)
	}
}

// TestFindNoTask: an empty unit holds no task, so Find(NoTask) is false
// even when some — or every — unit is empty.
func TestFindNoTask(t *testing.T) {
	a := mustArray(t, 3)
	if i, ok := a.Find(taskgraph.NoTask); ok {
		t.Errorf("Find(NoTask) on an empty array = %d, want not found", i)
	}
	a.Install(1, 4, ms(0))
	if i, ok := a.Find(taskgraph.NoTask); ok {
		t.Errorf("Find(NoTask) with two empty units = %d, want not found", i)
	}
}

func TestExecutionLifecycle(t *testing.T) {
	a := mustArray(t, 1)
	a.Install(0, 5, ms(0))
	a.StartExecution(0, ms(10))
	u := a.Unit(0)
	if !u.Busy || u.BusyUntil != ms(10) {
		t.Errorf("unit after start: %+v", u)
	}
	a.FinishExecution(0, ms(10))
	u = a.Unit(0)
	if u.Busy {
		t.Error("unit still busy after finish")
	}
	if u.LastUse != ms(10) {
		t.Errorf("LastUse = %v, want 10 ms", u.LastUse)
	}
}

func TestReuseRefreshesLRUNotFIFO(t *testing.T) {
	a := mustArray(t, 1)
	a.Install(0, 5, ms(0))
	a.StartExecution(0, ms(4))
	a.FinishExecution(0, ms(4))
	a.CountReuse(0)
	a.StartExecution(0, ms(9))
	a.FinishExecution(0, ms(9))
	u := a.Unit(0)
	if u.LastUse != ms(9) {
		t.Errorf("LastUse = %v, want 9 ms (refreshed by reuse)", u.LastUse)
	}
	if u.LoadedAt != ms(0) {
		t.Errorf("LoadedAt = %v, want 0 ms (not refreshed)", u.LoadedAt)
	}
	if u.Reuses != 1 {
		t.Errorf("Reuses = %d, want 1", u.Reuses)
	}
}

func TestInstallPanicsOnBusy(t *testing.T) {
	a := mustArray(t, 1)
	a.Install(0, 5, ms(0))
	a.StartExecution(0, ms(10))
	defer func() {
		if recover() == nil {
			t.Error("Install on busy unit did not panic")
		}
	}()
	a.Install(0, 6, ms(1))
}

func TestStartExecutionPanics(t *testing.T) {
	t.Run("empty unit", func(t *testing.T) {
		a := mustArray(t, 1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		a.StartExecution(0, ms(1))
	})
	t.Run("double start", func(t *testing.T) {
		a := mustArray(t, 1)
		a.Install(0, 5, ms(0))
		a.StartExecution(0, ms(2))
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		a.StartExecution(0, ms(3))
	})
}

func TestFinishExecutionPanicsWhenIdle(t *testing.T) {
	a := mustArray(t, 1)
	a.Install(0, 5, ms(0))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.FinishExecution(0, ms(1))
}

func TestReconfigurator(t *testing.T) {
	var r Reconfigurator
	if !r.Idle() {
		t.Error("zero reconfigurator is busy")
	}
	if _, active := r.End(); active {
		t.Error("zero reconfigurator reports a load")
	}
	end := r.BeginLatency(7, 2, ms(10), ms(4))
	if end != ms(14) {
		t.Errorf("BeginLatency returned %v, want 14 ms", end)
	}
	if r.Idle() {
		t.Error("reconfigurator should be busy")
	}
	if at, active := r.End(); !active || at != ms(14) {
		t.Errorf("End = %v,%v, want 14 ms,true", at, active)
	}
	task, tgt := r.Finish()
	if task != 7 || tgt != 2 || !r.Idle() {
		t.Errorf("Finish = %d,%d idle=%v", task, tgt, r.Idle())
	}
	if _, active := r.End(); active {
		t.Error("End reports a load after Finish")
	}
	// Each load carries its own latency.
	if end := r.BeginLatency(8, 0, ms(20), ms(6)); end != ms(26) {
		t.Errorf("a 6 ms load from 20 ms ends at %v, want 26 ms", end)
	}
}

func TestReconfiguratorZeroLatency(t *testing.T) {
	var r Reconfigurator
	if end := r.BeginLatency(1, 0, ms(5), 0); end != ms(5) {
		t.Errorf("zero-latency load ends at %v, want 5 ms", end)
	}
}

func TestReconfiguratorPanics(t *testing.T) {
	t.Run("double begin", func(t *testing.T) {
		var r Reconfigurator
		r.BeginLatency(1, 0, 0, ms(4))
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		r.BeginLatency(2, 1, 0, ms(4))
	})
	t.Run("finish idle", func(t *testing.T) {
		var r Reconfigurator
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		r.Finish()
	})
}
