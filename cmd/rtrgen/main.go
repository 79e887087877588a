// Command rtrgen emits task graphs and workload sequences for use with
// the other tools and for inspection.
//
//	rtrgen -graph jpeg -format json      # built-in benchmark as JSON
//	rtrgen -graph hough -format dot      # Graphviz rendering
//	rtrgen -random -tasks 8 -seed 3      # a random layered DAG
//	rtrgen -seq -apps 20 -seed 2011      # a workload sequence listing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/dynlist"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func main() {
	var (
		name   = flag.String("graph", "", "built-in graph: jpeg, mpeg1, hough, fig2tg1, fig2tg2, fig3tg1, fig3tg2")
		format = flag.String("format", "json", "output format for graphs: json or dot")
		random = flag.Bool("random", false, "generate a random layered DAG instead")
		tasks  = flag.Int("tasks", 8, "random graph: number of tasks")
		width  = flag.Int("width", 3, "random graph: maximum layer width")
		seq    = flag.Bool("seq", false, "emit a random application sequence instead of a graph")
		apps   = flag.Int("apps", 20, "sequence length")
		seed   = flag.Int64("seed", 2011, "random seed")
	)
	flag.Parse()

	switch {
	case *seq:
		graphs, err := dynlist.RandomSequence(workload.Multimedia(), *apps, rand.New(rand.NewSource(*seed)))
		if err != nil {
			fatal(err)
		}
		for i, g := range graphs {
			fmt.Printf("%4d %s\n", i, g.Name())
		}
	case *random:
		g, err := taskgraph.RandomLayered(fmt.Sprintf("random-%d", *seed), taskgraph.RandomConfig{
			Tasks:    *tasks,
			MaxWidth: *width,
			EdgeProb: 0.5,
			MinExec:  simtime.FromMs(1),
			MaxExec:  simtime.FromMs(20),
		}, rand.New(rand.NewSource(*seed)))
		if err != nil {
			fatal(err)
		}
		emit(g, *format)
	default:
		g, err := builtin(*name)
		if err != nil {
			fatal(err)
		}
		emit(g, *format)
	}
}

func builtin(name string) (*taskgraph.Graph, error) {
	switch name {
	case "jpeg":
		return workload.JPEG(), nil
	case "mpeg1":
		return workload.MPEG1(), nil
	case "hough":
		return workload.Hough(), nil
	case "fig2tg1":
		return workload.Fig2TG1(), nil
	case "fig2tg2":
		return workload.Fig2TG2(), nil
	case "fig3tg1":
		return workload.Fig3TG1(), nil
	case "fig3tg2":
		return workload.Fig3TG2(), nil
	case "":
		return nil, fmt.Errorf("need -graph, -random or -seq")
	default:
		return nil, fmt.Errorf("unknown graph %q", name)
	}
}

func emit(g *taskgraph.Graph, format string) {
	switch format {
	case "json":
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case "dot":
		fmt.Print(g.DOT())
	default:
		fatal(fmt.Errorf("unknown format %q (want json or dot)", format))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtrgen:", err)
	os.Exit(1)
}
