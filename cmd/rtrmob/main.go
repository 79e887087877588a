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
//
// An rtrserved campaign started with -token needs -auth-token too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/artifact"
	"repro/internal/cliflags"
	"repro/internal/mobility"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rtrmob:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args and writes the table to stdout and
// the store digest to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rtrmob", flag.ExitOnError)
	var (
		name     = fs.String("graph", "", "built-in graph: jpeg, mpeg1, hough, fig2tg1, fig2tg2, fig3tg1, fig3tg2, or multimedia (the whole pool; needs -store)")
		jsonIn   = fs.String("json", "", "path of a JSON graph definition (see taskgraph schema)")
		rus      = fs.String("rus", "4", "number of reconfigurable units; a range (\"4-10\") or list (\"4,6\") pre-seeds each (needs -store)")
		latency  = fs.Float64("latency", 4, "reconfiguration latency in ms")
		dot      = fs.Bool("dot", false, "also print the graph in Graphviz dot syntax")
		asJSON   = fs.Bool("o-json", false, "emit the mobility table as JSON (the deployable design-time artefact)")
		storeDir = fs.String("store", os.Getenv("RTR_STORE"), "result store locator (a directory, fs:DIR, mem:, or an rtrserved campaign http(s)://HOST:PORT/c/ID; default: $RTR_STORE): persist the computed tables as design-time artifacts for rtrsim/rtrrepro runs sharing the store")
		noStore  = fs.Bool("no-store", false, "disable the artifact store even when -store/$RTR_STORE is set")
		httpOpts = cliflags.RegisterHTTP(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	store, err := resultstore.OpenIfSet(*storeDir, *noStore, *httpOpts)
	if err != nil {
		return err
	}
	mobility.ResetStats()
	if store != nil {
		defer artifact.Install(store)()
	}

	graphs, err := loadGraphs(*name, *jsonIn)
	if err != nil {
		return err
	}
	units, err := sweep.ParseRUs(*rus)
	if err != nil {
		return err
	}
	if len(graphs) > 1 || len(units) > 1 {
		if store == nil {
			return fmt.Errorf("multiple graphs or unit counts pre-seed a store; pass -store DIR (or run one graph at one -rus)")
		}
		if *dot || *asJSON {
			return fmt.Errorf("-dot/-o-json need a single graph at a single -rus")
		}
		for _, u := range units {
			for _, g := range graphs {
				if _, err := mobility.Cached(g, u, simtime.FromMs(*latency)); err != nil {
					return fmt.Errorf("%s rus=%d: %w", g.Name(), u, err)
				}
			}
		}
		report(stderr, store)
		return nil
	}

	g := graphs[0]
	tab, err := mobility.Cached(g, units[0], simtime.FromMs(*latency))
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(tab, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		report(stderr, store)
		return nil
	}
	fmt.Fprintln(stdout, tab)
	fmt.Fprintf(stdout, "critical path %v, width %d, %d schedules simulated\n",
		g.CriticalPath(), g.Width(), tab.Schedules)
	if *dot {
		fmt.Fprint(stdout, g.DOT())
	}
	report(stderr, store)
	return nil
}

// report prints the design-time cache digest when a store is attached,
// so operators see what a pre-seed run computed vs served.
func report(w io.Writer, store *resultstore.Store) {
	if store == nil {
		return
	}
	fmt.Fprintln(w, store.SummaryLine())
	if line := mobility.DigestLine(); line != "" {
		fmt.Fprintln(w, line)
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
