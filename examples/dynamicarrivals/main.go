// Dynamicarrivals: the highly dynamic environment of the paper's Fig. 1 —
// applications arrive over time, the Dynamic List grows and shrinks, and
// the scheduler only ever sees a window of the future. A burst of arrivals
// piles work up; a quiet period drains it; a late job finds its
// configurations still resident and runs with zero reconfiguration cost.
//
//	go run ./examples/dynamicarrivals
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/dynlist"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example's report to w.
func run(w io.Writer) error {
	jpeg, mpeg := workload.JPEG(), workload.MPEG1()
	ms := simtime.FromMs

	// A bursty arrival pattern: two jobs at once, two more while the
	// first burst executes, silence, then a JPEG long after the system
	// went idle. The 9-unit platform fits both working sets (4+5 tasks),
	// so steady state approaches zero reconfigurations.
	arrivals := []dynlist.Item{
		{Graph: jpeg, Arrival: 0},
		{Graph: mpeg, Arrival: 0},
		{Graph: jpeg, Arrival: ms(120)},
		{Graph: mpeg, Arrival: ms(150)},
		{Graph: jpeg, Arrival: ms(700)},
	}

	sys, err := core.NewSystem(core.Config{
		RUs:         9,
		Latency:     workload.PaperLatency(),
		Policy:      "locallfd:2",
		SkipEvents:  true,
		RecordTrace: true,
	})
	if err != nil {
		return err
	}
	if err := sys.Prepare(jpeg, mpeg); err != nil {
		return err
	}
	timed, err := dynlist.NewTimed(arrivals)
	if err != nil {
		return err
	}
	res, err := sys.RunArrivals(timed)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "per-application timeline (arrival → start → completion):")
	for _, g := range res.Run.Trace.Graphs {
		fmt.Fprintf(w, "  #%d %-6s  arrived %8v  started %8v  finished %8v\n",
			g.Instance, g.Name, g.Arrived, g.Started, g.Finished)
	}
	s := res.Summary
	fmt.Fprintf(w, "\nreuse %.1f%% (%d/%d), overhead %v\n",
		s.ReuseRate(), s.Reused, s.Executed, s.Overhead())
	fmt.Fprintln(w, "\nThe final JPEG (arrival 700 ms) reuses the whole pipeline left resident")
	fmt.Fprintln(w, "by the earlier instances: zero reconfigurations, zero overhead.")

	// The same system under a sustained stochastic load: a Poisson stream
	// of 80 applications with a 30 ms mean inter-arrival gap.
	poisson, err := dynlist.RandomArrivals([]*taskgraph.Graph{jpeg, mpeg}, 80,
		ms(30), rand.New(rand.NewSource(7)))
	if err != nil {
		return err
	}
	res, err = sys.RunArrivals(poisson)
	if err != nil {
		return err
	}
	s = res.Summary
	fmt.Fprintf(w, "\nPoisson stream (80 apps, mean gap 30 ms): reuse %.1f%%, overhead %v (%.2f%% of original)\n",
		s.ReuseRate(), s.Overhead(), s.RemainingOverheadPct())
	return nil
}
