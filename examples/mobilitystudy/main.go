// Mobilitystudy: the design-time side of the paper's technique. For each
// benchmark the example computes the mobility table (Fig. 6) at several
// platform sizes, showing how slack appears as units are added, then
// replays the paper's Fig. 3 to show a single skip decision paying off at
// run time.
//
//	go run ./examples/mobilitystudy
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/mobility"
	"repro/internal/taskgraph"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example's report to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "design-time mobility tables (events a load may be postponed):")
	graphs := []*taskgraph.Graph{
		workload.Fig3TG2(), workload.JPEG(), workload.MPEG1(), workload.Hough(),
	}
	for _, g := range graphs {
		for _, rus := range []int{2, 4, 8} {
			if rus < g.Width() {
				// Narrower than the graph is fine too, but keep the
				// table readable.
				continue
			}
			tab, err := mobility.Compute(g, rus, workload.PaperLatency())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %v\n", tab)
		}
	}

	fmt.Fprintln(w, "\nrun-time payoff (the paper's Fig. 3, R=4):")
	for _, skip := range []bool{false, true} {
		res, err := core.Evaluate(core.Config{
			RUs: 4, Latency: workload.PaperLatency(), Policy: "locallfd:1",
			SkipEvents: skip, RecordTrace: true,
		}, workload.Fig3Sequence()...)
		if err != nil {
			return err
		}
		s := res.Summary
		label := "ASAP (no skips)"
		if skip {
			label = "with skip events"
		}
		fmt.Fprintf(w, "\n%s: makespan %v, overhead %v, reuse %.0f%%, skips %d\n",
			label, s.Makespan, s.Overhead(), s.ReuseRate(), res.Run.Skips)
		fmt.Fprint(w, res.Run.Trace.Gantt(trace.GanttOptions{TickMs: 1}))
	}
	fmt.Fprintln(w, "\nDelaying task 7 by one event (its mobility) keeps task 1 resident for")
	fmt.Fprintln(w, "the second Task Graph 1, eliminating one exposed reconfiguration.")
	return nil
}
