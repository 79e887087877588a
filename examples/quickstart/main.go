// Quickstart: define two small applications, run them on a simulated
// 4-unit reconfigurable system under the paper's Local LFD policy, and
// print the reuse and overhead metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example's report to w.
func run(w io.Writer) error {
	// An application is a task graph: nodes are hardware tasks (one FPGA
	// configuration each), edges are dependencies. Task IDs are global —
	// repeated executions of the same template share them, which is what
	// makes configuration reuse possible.
	filter, err := taskgraph.NewBuilder("filter").
		AddTask(1, "acquire", simtime.FromMs(3)).
		AddTask(2, "convolve", simtime.FromMs(8)).
		AddTask(3, "emit", simtime.FromMs(2)).
		AddDep(1, 2).
		AddDep(2, 3).
		Build()
	if err != nil {
		return err
	}
	detect := taskgraph.ForkJoin("detect", 10,
		simtime.FromMs(4), // root
		[]simtime.Time{simtime.FromMs(6), simtime.FromMs(5)}, // parallel branches
		simtime.FromMs(3), // sink
		true)

	// A system: 4 equal reconfigurable units, 4 ms reconfiguration
	// latency, the paper's Local LFD replacement policy with a Dynamic
	// List window of 2 applications, plus the hybrid skip-events feature.
	sys, err := core.NewSystem(core.Config{
		RUs:        4,
		Latency:    simtime.FromMs(4),
		Policy:     "locallfd:2",
		SkipEvents: true,
	})
	if err != nil {
		return err
	}

	// Design-time phase: compute mobility tables once per template.
	if err := sys.Prepare(filter, detect); err != nil {
		return err
	}

	// Run-time phase: execute a bursty sequence that revisits templates —
	// the situation configuration reuse pays off in.
	res, err := sys.Run(filter, detect, filter, filter, detect)
	if err != nil {
		return err
	}

	s := res.Summary
	fmt.Fprintf(w, "executed %d tasks, reused %d (%.1f%%)\n", s.Executed, s.Reused, s.ReuseRate())
	fmt.Fprintf(w, "makespan %v vs ideal %v — reconfiguration overhead %v\n",
		s.Makespan, s.IdealMakespan, s.Overhead())
	fmt.Fprintf(w, "only %.1f%% of the raw reconfiguration cost (%v) remains visible\n",
		s.RemainingOverheadPct(), s.OriginalOverhead())
	return nil
}
