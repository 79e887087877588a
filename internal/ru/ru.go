// Package ru models the reconfigurable hardware substrate assumed by the
// paper: a set of equal-sized reconfigurable units (RUs), each able to hold
// one task configuration at a time, fed by a single reconfiguration
// circuitry that can perform one load at a time with a fixed latency.
//
// This mirrors the multi-tasking reconfigurable architectures of the
// paper's references [7, 8] (network-on-chip hosted reconfigurable tiles
// and parallel configuration models): units are interchangeable, so a task
// can be placed on any unit, and reuse means finding the task's
// configuration already resident on some unit.
package ru

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// Unit is the state of one reconfigurable unit.
type Unit struct {
	// Resident is the configuration currently held, or taskgraph.NoTask
	// when the unit has never been loaded.
	Resident taskgraph.TaskID
	// Busy reports whether the resident task is executing right now.
	Busy bool
	// BusyUntil is the end of the current execution (valid when Busy).
	BusyUntil simtime.Time
	// LastUse is when the resident configuration last finished executing;
	// this is the LRU key. A reused configuration refreshes it.
	LastUse simtime.Time
	// LoadedAt is when the resident configuration was written; this is
	// the FIFO key. Reuse does not refresh it.
	LoadedAt simtime.Time
	// Loads counts configurations written onto this unit.
	Loads int
	// Reuses counts executions that found their configuration already
	// resident here.
	Reuses int
}

// Array is the bank of reconfigurable units. It keeps no index of what is
// resident where: an array holds a handful of units, and every placement
// decision scans them all anyway, so Find scans too.
type Array struct {
	units []Unit
}

// NewArray creates n empty units. n must be positive.
func NewArray(n int) (*Array, error) {
	if n < 1 {
		return nil, fmt.Errorf("ru: need at least 1 unit, got %d", n)
	}
	return &Array{units: make([]Unit, n)}, nil
}

// Reset re-initialises the array to n empty units, reusing the unit
// storage of previous runs where possible. n must be positive. A pooled
// simulation runner calls this once per run instead of allocating a fresh
// Array.
func (a *Array) Reset(n int) error {
	if n < 1 {
		return fmt.Errorf("ru: need at least 1 unit, got %d", n)
	}
	if n <= cap(a.units) {
		a.units = a.units[:n]
		clear(a.units)
	} else {
		a.units = make([]Unit, n)
	}
	return nil
}

// Len returns the number of units.
func (a *Array) Len() int { return len(a.units) }

// Unit returns unit i's state in place; callers only read it.
func (a *Array) Unit(i int) *Unit { return &a.units[i] }

// Find returns the unit currently holding task, if any. An empty unit
// holds no task, so Find(taskgraph.NoTask) is always false.
func (a *Array) Find(task taskgraph.TaskID) (int, bool) {
	if task == taskgraph.NoTask {
		return -1, false
	}
	for i := range a.units {
		if a.units[i].Resident == task {
			return i, true
		}
	}
	return -1, false
}

// FirstEmpty returns the lowest-indexed unit that has never been loaded.
func (a *Array) FirstEmpty() (int, bool) {
	for i := range a.units {
		if a.units[i].Resident == taskgraph.NoTask {
			return i, true
		}
	}
	return -1, false
}

// Install writes task's configuration onto unit i at time at, evicting
// whatever was resident. It returns the evicted task (NoTask if the unit
// was empty). Installing onto a busy unit is a programming error.
func (a *Array) Install(i int, task taskgraph.TaskID, at simtime.Time) taskgraph.TaskID {
	u := &a.units[i]
	if u.Busy {
		panic(fmt.Sprintf("ru: installing task %d on busy unit %d", task, i))
	}
	evicted := u.Resident
	u.Resident = task
	u.LoadedAt = at
	u.LastUse = at
	u.Loads++
	return evicted
}

// StartExecution marks unit i busy until end. The unit must hold a
// configuration and be idle.
func (a *Array) StartExecution(i int, end simtime.Time) {
	u := &a.units[i]
	if u.Resident == taskgraph.NoTask {
		panic(fmt.Sprintf("ru: executing on empty unit %d", i))
	}
	if u.Busy {
		panic(fmt.Sprintf("ru: unit %d already executing", i))
	}
	u.Busy = true
	u.BusyUntil = end
}

// FinishExecution marks unit i idle at time at and refreshes the LRU key.
func (a *Array) FinishExecution(i int, at simtime.Time) {
	u := &a.units[i]
	if !u.Busy {
		panic(fmt.Sprintf("ru: finishing idle unit %d", i))
	}
	u.Busy = false
	u.LastUse = at
}

// CountReuse records that unit i's resident configuration is being reused.
func (a *Array) CountReuse(i int) { a.units[i].Reuses++ }

// TotalLoads sums configuration writes across all units.
func (a *Array) TotalLoads() int {
	n := 0
	for i := range a.units {
		n += a.units[i].Loads
	}
	return n
}

// TotalReuses sums reuses across all units.
func (a *Array) TotalReuses() int {
	n := 0
	for i := range a.units {
		n += a.units[i].Reuses
	}
	return n
}

// Reconfigurator is the single reconfiguration circuitry. Only one load
// can be in flight at a time; latency is fixed per load.
type Reconfigurator struct {
	latency simtime.Time

	active    bool
	task      taskgraph.TaskID
	target    int
	busyUntil simtime.Time

	loads     int
	busyTotal simtime.Time
}

// NewReconfigurator creates a circuitry with the given per-load latency.
// Latency may be zero (used to compute ideal schedules) but not negative.
func NewReconfigurator(latency simtime.Time) (*Reconfigurator, error) {
	if latency < 0 {
		return nil, fmt.Errorf("ru: negative reconfiguration latency %v", latency)
	}
	return &Reconfigurator{latency: latency}, nil
}

// Reset re-initialises the circuitry for a new run with the given
// per-load latency, clearing the in-flight load and the counters.
func (r *Reconfigurator) Reset(latency simtime.Time) error {
	if latency < 0 {
		return fmt.Errorf("ru: negative reconfiguration latency %v", latency)
	}
	*r = Reconfigurator{latency: latency}
	return nil
}

// Latency returns the per-load latency.
func (r *Reconfigurator) Latency() simtime.Time { return r.latency }

// Idle reports whether the circuitry can accept a load.
func (r *Reconfigurator) Idle() bool { return !r.active }

// Begin starts loading task onto unit target at time at using the default
// latency, and returns the completion time. Beginning a load while busy
// is a programming error.
func (r *Reconfigurator) Begin(task taskgraph.TaskID, target int, at simtime.Time) simtime.Time {
	return r.BeginLatency(task, target, at, r.latency)
}

// BeginLatency is Begin with an explicit per-load latency, supporting
// heterogeneous configurations (bitstream sizes differing per task).
func (r *Reconfigurator) BeginLatency(task taskgraph.TaskID, target int, at, latency simtime.Time) simtime.Time {
	if r.active {
		panic(fmt.Sprintf("ru: reconfigurator busy with task %d, cannot load %d", r.task, task))
	}
	if latency < 0 {
		panic(fmt.Sprintf("ru: negative latency %v for task %d", latency, task))
	}
	r.active = true
	r.task = task
	r.target = target
	r.busyUntil = at.Add(latency)
	r.loads++
	r.busyTotal = r.busyTotal.Add(latency)
	return r.busyUntil
}

// Finish completes the in-flight load and returns the task and target unit.
func (r *Reconfigurator) Finish() (taskgraph.TaskID, int) {
	if !r.active {
		panic("ru: finishing an idle reconfigurator")
	}
	r.active = false
	return r.task, r.target
}

// End returns the in-flight load's completion time; active is false when
// the circuitry is idle.
func (r *Reconfigurator) End() (end simtime.Time, active bool) {
	return r.busyUntil, r.active
}

// InFlight returns the task being loaded and its target while active.
func (r *Reconfigurator) InFlight() (taskgraph.TaskID, int, bool) {
	return r.task, r.target, r.active
}

// Loads returns the number of loads performed.
func (r *Reconfigurator) Loads() int { return r.loads }

// BusyTotal returns the cumulative time spent loading.
func (r *Reconfigurator) BusyTotal() simtime.Time { return r.busyTotal }
