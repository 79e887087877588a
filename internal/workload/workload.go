// Package workload defines the applications the paper evaluates with and
// generates the experiment sequences.
//
// Two families of graphs exist:
//
//   - The motivational-example graphs of Fig. 2 and Fig. 3, whose
//     structures and execution times were reverse-engineered so that every
//     number in those figures reproduces exactly (internal/manager's
//     TestFig2* and TestFig3* tests check them).
//   - The three multimedia benchmarks (JPEG decoder, MPEG-1 encoder, Hough
//     transform). The paper gives their node counts (4, 5, 6 — fifteen
//     distinct tasks in total) and their initial execution times
//     (79, 37, 94 ms; Table II) but not their structures or per-task
//     times; we model the canonical pipeline of each application with
//     per-task times chosen so the critical paths match the paper.
//
// Task IDs are globally unique across the three multimedia benchmarks, as
// reuse identity requires; the Fig. 2/Fig. 3 graphs use the paper's own
// small IDs and must not be mixed with other families in one workload
// (ValidateUniverse catches that).
package workload

import (
	"fmt"
	"sync"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

// PaperLatency is the reconfiguration latency used in all of the paper's
// worked examples (4 ms) and, absent other information, in its
// experiments. Virtex-class devices of the paper's era had per-region
// reconfiguration times of this order.
const PaperLatencyMs = 4.0

// PaperLatency returns PaperLatencyMs as a simtime.Time.
func PaperLatency() simtime.Time { return ms(PaperLatencyMs) }

// Fig2TG1 is Task Graph 1 of Fig. 2: the chain 1(2.5) → 2(2.5) → 3(4).
func Fig2TG1() *taskgraph.Graph {
	return taskgraph.Chain("fig2-tg1", 1, ms(2.5), ms(2.5), ms(4))
}

// Fig2TG2 is Task Graph 2 of Fig. 2: the chain 4(4) → 5(4).
func Fig2TG2() *taskgraph.Graph {
	return taskgraph.Chain("fig2-tg2", 4, ms(4), ms(4))
}

// Fig2Sequence is the application sequence of Fig. 2: TG1, TG2, TG2, TG1,
// TG2 — twelve task executions in total.
func Fig2Sequence() []*taskgraph.Graph {
	tg1, tg2 := Fig2TG1(), Fig2TG2()
	return []*taskgraph.Graph{tg1, tg2, tg2, tg1, tg2}
}

// Fig3TG1 is Task Graph 1 of Fig. 3: the fork 1(12) → {2(6), 3(6)}.
func Fig3TG1() *taskgraph.Graph {
	return taskgraph.ForkJoin("fig3-tg1", 1, ms(12), []simtime.Time{ms(6), ms(6)}, 0, false)
}

// Fig3TG2 is Task Graph 2 of Fig. 3 (also the subject of the Fig. 7
// mobility example): the diamond 4(12) → {5(8), 6(6)} → 7(6).
func Fig3TG2() *taskgraph.Graph {
	return taskgraph.ForkJoin("fig3-tg2", 4, ms(12), []simtime.Time{ms(8), ms(6)}, ms(6), true)
}

// Fig3Sequence is the application sequence of Fig. 3: TG1, TG2, TG1 — ten
// task executions in total.
func Fig3Sequence() []*taskgraph.Graph {
	tg1, tg2 := Fig3TG1(), Fig3TG2()
	return []*taskgraph.Graph{tg1, tg2, tg1}
}

// The three multimedia benchmarks are process-wide singletons: graphs
// are immutable once built, and design-time mobility tables (and their
// process-wide cache, internal/mobility) are keyed by template identity —
// returning one instance per benchmark lets every experiment, System and
// sweep in the process share one cached table per configuration instead
// of recomputing it for a fresh pointer each call.

// JPEG is the 4-node JPEG decoder benchmark: the classic decoding
// pipeline VLD → dequantize/zig-zag → IDCT → colour conversion. Critical
// path 79 ms (paper Table II).
var JPEG = sync.OnceValue(func() *taskgraph.Graph {
	return taskgraph.NewBuilder("jpeg").
		AddTask(11, "vld", ms(17)).
		AddTask(12, "iqzz", ms(14)).
		AddTask(13, "idct", ms(31)).
		AddTask(14, "cc", ms(17)).
		AddDep(11, 12).AddDep(12, 13).AddDep(13, 14).
		MustBuild()
})

// MPEG1 is the 5-node MPEG-1 encoder benchmark: motion estimation →
// motion compensation → DCT → quantization → VLC. Critical path 37 ms
// (paper Table II).
var MPEG1 = sync.OnceValue(func() *taskgraph.Graph {
	return taskgraph.NewBuilder("mpeg1").
		AddTask(21, "me", ms(12)).
		AddTask(22, "mc", ms(5)).
		AddTask(23, "dct", ms(8)).
		AddTask(24, "q", ms(4)).
		AddTask(25, "vlc", ms(8)).
		AddDep(21, 22).AddDep(22, 23).AddDep(23, 24).AddDep(24, 25).
		MustBuild()
})

// Hough is the 6-node pattern-recognition benchmark built around the
// Hough transform: smoothing feeds two parallel gradient filters, whose
// results merge into the magnitude/threshold stage, then the transform
// and peak detection. Critical path 18+12+14+32+18 = 94 ms (paper
// Table II); the parallel branch exercises multi-unit execution.
var Hough = sync.OnceValue(func() *taskgraph.Graph {
	return taskgraph.NewBuilder("hough").
		AddTask(31, "smooth", ms(18)).
		AddTask(32, "gradx", ms(12)).
		AddTask(33, "grady", ms(10)).
		AddTask(34, "magn", ms(14)).
		AddTask(35, "hough", ms(32)).
		AddTask(36, "peaks", ms(18)).
		AddDep(31, 32).AddDep(31, 33).
		AddDep(32, 34).AddDep(33, 34).
		AddDep(34, 35).AddDep(35, 36).
		MustBuild()
})

// Multimedia returns the paper's three-benchmark pool in a stable order
// (a fresh slice over the singleton templates).
func Multimedia() []*taskgraph.Graph {
	return []*taskgraph.Graph{JPEG(), MPEG1(), Hough()}
}

// ValidateUniverse checks that distinct templates in a workload use
// disjoint task-ID sets (repeating the same template is fine). Reuse is
// keyed on task IDs, so an accidental collision between different
// applications would let one app "reuse" another's configuration.
func ValidateUniverse(graphs []*taskgraph.Graph) error {
	owner := map[taskgraph.TaskID]*taskgraph.Graph{}
	seen := map[*taskgraph.Graph]bool{}
	for _, g := range graphs {
		if g == nil {
			return fmt.Errorf("workload: nil graph")
		}
		if seen[g] {
			continue
		}
		seen[g] = true
		for _, t := range g.Tasks() {
			if other, clash := owner[t.ID]; clash {
				return fmt.Errorf("workload: task id %d used by both %q and %q",
					t.ID, other.Name(), g.Name())
			}
			owner[t.ID] = g
		}
	}
	return nil
}

// UniverseSize counts distinct task IDs across the workload — the
// paper's "15 different tasks compete for 4 reconfigurable units".
func UniverseSize(graphs []*taskgraph.Graph) int {
	ids := map[taskgraph.TaskID]bool{}
	for _, g := range graphs {
		for _, t := range g.Tasks() {
			ids[t.ID] = true
		}
	}
	return len(ids)
}
