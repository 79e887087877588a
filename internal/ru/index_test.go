package ru

import (
	"testing"

	"repro/internal/taskgraph"
)

// checkIndex compares Find and FirstEmpty with a scan of the units, for
// every TaskID up to maxID and one past it.
func checkIndex(t *testing.T, a *Array, maxID taskgraph.TaskID, after string) {
	t.Helper()
	for id := taskgraph.NoTask; id <= maxID+1; id++ {
		want, wantOK := -1, false
		for i := 0; i < a.Len(); i++ {
			if id != taskgraph.NoTask && a.Unit(i).Resident == id {
				want, wantOK = i, true
				break
			}
		}
		if got, ok := a.Find(id); got != want || ok != wantOK {
			t.Fatalf("after %s: Find(%d) = %d,%v; a scan finds %d,%v", after, id, got, ok, want, wantOK)
		}
	}
	want, wantOK := -1, false
	for i := 0; i < a.Len(); i++ {
		if a.Unit(i).Resident == taskgraph.NoTask {
			want, wantOK = i, true
			break
		}
	}
	if got, ok := a.FirstEmpty(); got != want || ok != wantOK {
		t.Fatalf("after %s: FirstEmpty() = %d,%v; a scan finds %d,%v", after, got, ok, want, wantOK)
	}
}

// FuzzArrayIndex drives random Install, StartExecution, FinishExecution
// and Reset sequences through the residency index, Resets to fewer or
// more units and TaskIDs past every earlier one included, and checks
// Find and FirstEmpty against a scan of the units after every operation.
// Each operation is three bytes: the kind, a unit and a TaskID or size;
// an operation the array would refuse (a busy or empty unit, a task
// resident elsewhere) is skipped.
func FuzzArrayIndex(f *testing.F) {
	f.Add(byte(3), []byte{0, 0, 5, 0, 1, 6, 0, 2, 7, 0, 0, 9, 3, 0, 1, 0, 0, 9})
	f.Add(byte(1), []byte{0, 0, 1, 1, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 200, 3, 0, 6, 0, 5, 200})
	f.Add(byte(7), []byte{0, 7, 40, 0, 3, 41, 3, 0, 2, 0, 1, 42, 3, 0, 7, 0, 6, 40, 0, 6, 255})
	f.Fuzz(func(t *testing.T, n byte, ops []byte) {
		a, err := NewArray(1 + int(n%8))
		if err != nil {
			t.Fatal(err)
		}
		var maxID taskgraph.TaskID
		var at int64
		for k := 0; k+2 < len(ops); k += 3 {
			kind, unit, arg := ops[k]%4, int(ops[k+1])%a.Len(), ops[k+2]
			at++
			u := a.Unit(unit)
			switch kind {
			case 0:
				task := taskgraph.TaskID(1 + int(arg))
				if j, ok := a.Find(task); u.Busy || ok && j != unit {
					continue
				}
				was := u.Resident
				if got := a.Install(unit, task, ms(float64(at))); got != was {
					t.Fatalf("Install(%d, %d) evicted %d, unit held %d", unit, task, got, was)
				}
				maxID = max(maxID, task)
			case 1:
				if u.Busy || u.Resident == taskgraph.NoTask {
					continue
				}
				a.StartExecution(unit, ms(float64(at)))
			case 2:
				if !u.Busy {
					continue
				}
				a.FinishExecution(unit, ms(float64(at)))
			case 3:
				if err := a.Reset(1 + int(arg%8)); err != nil {
					t.Fatal(err)
				}
			}
			checkIndex(t, a, maxID, [...]string{"Install", "StartExecution", "FinishExecution", "Reset"}[kind])
		}
	})
}

// TestInstallPanicsOnInvalidTask: the index holds each task on one unit
// and has no slot for NoTask, so installing NoTask, or a task resident on
// another unit, is a programming error. Installing a task onto the unit
// already holding it is a reload, not a duplicate.
func TestInstallPanicsOnInvalidTask(t *testing.T) {
	for name, install := range map[string]func(a *Array){
		"NoTask":           func(a *Array) { a.Install(1, taskgraph.NoTask, ms(1)) },
		"resident on 0":    func(a *Array) { a.Install(1, 5, ms(1)) },
		"negative task ID": func(a *Array) { a.Install(1, -2, ms(1)) },
	} {
		t.Run(name, func(t *testing.T) {
			a := mustArray(t, 2)
			a.Install(0, 5, ms(0))
			defer func() {
				if recover() == nil {
					t.Error("Install did not panic")
				}
			}()
			install(a)
		})
	}
	a := mustArray(t, 2)
	a.Install(0, 5, ms(0))
	if ev := a.Install(0, 5, ms(1)); ev != 5 {
		t.Errorf("reloading task 5 on its unit evicted %d, want 5", ev)
	}
	if i, ok := a.Find(5); !ok || i != 0 {
		t.Errorf("Find(5) after a reload = %d,%v, want 0,true", i, ok)
	}
}
