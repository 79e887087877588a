// Command rtrmob runs the design-time phase of the paper's technique: it
// computes the mobility table of a task graph (Fig. 6) for a given system
// configuration.
//
//	rtrmob -graph fig3tg2            # the paper's Fig. 7 example
//	rtrmob -graph hough -rus 6
//	rtrmob -json mygraph.json -rus 4 -latency 2.5
//
// With -store the computed tables persist as design-time artifacts in a
// result store, where rtrsim and rtrrepro runs sharing that store load
// them instead of recomputing. -graph multimedia selects the whole
// multimedia template pool and -rus accepts a range, so one command
// pre-seeds every table a sweep will need:
//
//	rtrmob -graph multimedia -rus 4-10 -store /shared/store
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/artifact"
	"repro/internal/mobility"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func main() {
	var (
		name     = flag.String("graph", "", "built-in graph: jpeg, mpeg1, hough, fig2tg1, fig2tg2, fig3tg1, fig3tg2, or multimedia (the whole pool; needs -store)")
		jsonIn   = flag.String("json", "", "path of a JSON graph definition (see taskgraph schema)")
		rus      = flag.String("rus", "4", "number of reconfigurable units; a range (\"4-10\") or list (\"4,6\") pre-seeds each (needs -store)")
		latency  = flag.Float64("latency", 4, "reconfiguration latency in ms")
		dot      = flag.Bool("dot", false, "also print the graph in Graphviz dot syntax")
		asJSON   = flag.Bool("o-json", false, "emit the mobility table as JSON (the deployable design-time artefact)")
		storeDir = flag.String("store", os.Getenv("RTR_STORE"), "result store locator (a directory, fs:DIR, mem:, or an rtrserved campaign http(s)://HOST:PORT/c/ID; default: $RTR_STORE): persist the computed tables as design-time artifacts for rtrsim/rtrrepro runs sharing the store")
		noStore  = flag.Bool("no-store", false, "disable the artifact store even when -store/$RTR_STORE is set")
	)
	flag.Parse()

	store, err := resultstore.OpenIfSet(*storeDir, *noStore)
	if err != nil {
		fatal(err)
	}
	mobility.ResetStats()
	if store != nil {
		artifact.Install(store)
	}

	graphs, err := loadGraphs(*name, *jsonIn)
	if err != nil {
		fatal(err)
	}
	units, err := sweep.ParseRUs(*rus)
	if err != nil {
		fatal(err)
	}
	if len(graphs) > 1 || len(units) > 1 {
		if store == nil {
			fatal(fmt.Errorf("multiple graphs or unit counts pre-seed a store; pass -store DIR (or run one graph at one -rus)"))
		}
		if *dot || *asJSON {
			fatal(fmt.Errorf("-dot/-o-json need a single graph at a single -rus"))
		}
		for _, u := range units {
			for _, g := range graphs {
				if _, err := mobility.Cached(g, u, simtime.FromMs(*latency)); err != nil {
					fatal(fmt.Errorf("%s rus=%d: %w", g.Name(), u, err))
				}
			}
		}
		reportAndFlush(store)
		return
	}

	g := graphs[0]
	tab, err := mobility.Cached(g, units[0], simtime.FromMs(*latency))
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		data, err := json.MarshalIndent(tab, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		reportAndFlush(store)
		return
	}
	fmt.Println(tab)
	fmt.Printf("critical path %v, width %d, %d schedules simulated\n",
		g.CriticalPath(), g.Width(), tab.Schedules)
	if *dot {
		fmt.Print(g.DOT())
	}
	reportAndFlush(store)
}

// reportAndFlush prints the design-time cache digest when a store is
// attached, so operators see what a pre-seed run computed vs served.
func reportAndFlush(store *resultstore.Store) {
	if store == nil {
		return
	}
	fmt.Fprintln(os.Stderr, store.SummaryLine())
	if line := mobility.DigestLine(); line != "" {
		fmt.Fprintln(os.Stderr, line)
	}
}

func loadGraphs(name, jsonPath string) ([]*taskgraph.Graph, error) {
	if jsonPath != "" {
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			return nil, err
		}
		g, err := taskgraph.FromJSON(data)
		if err != nil {
			return nil, err
		}
		return []*taskgraph.Graph{g}, nil
	}
	switch name {
	case "jpeg":
		return []*taskgraph.Graph{workload.JPEG()}, nil
	case "mpeg1":
		return []*taskgraph.Graph{workload.MPEG1()}, nil
	case "hough":
		return []*taskgraph.Graph{workload.Hough()}, nil
	case "fig2tg1":
		return []*taskgraph.Graph{workload.Fig2TG1()}, nil
	case "fig2tg2":
		return []*taskgraph.Graph{workload.Fig2TG2()}, nil
	case "fig3tg1":
		return []*taskgraph.Graph{workload.Fig3TG1()}, nil
	case "fig3tg2":
		return []*taskgraph.Graph{workload.Fig3TG2()}, nil
	case "multimedia":
		return workload.Multimedia(), nil
	case "":
		return nil, fmt.Errorf("need -graph or -json")
	default:
		return nil, fmt.Errorf("unknown graph %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtrmob:", err)
	os.Exit(1)
}
