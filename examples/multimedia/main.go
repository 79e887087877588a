// Multimedia: the paper's evaluation scenario — a random stream of JPEG
// decoder, MPEG-1 encoder and Hough transform applications on a small
// reconfigurable platform — comparing every replacement policy head to
// head. This is the situation the paper's introduction motivates:
// recurrent multimedia kernels competing for a few reconfigurable units.
//
//	go run ./examples/multimedia
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/dynlist"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example's report to w.
func run(w io.Writer) error {
	const (
		apps = 150
		rus  = 4
		seed = 42
	)
	pool := workload.Multimedia()
	seq, err := dynlist.RandomSequence(pool, apps, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d applications drawn from {JPEG, MPEG-1, Hough} — %d distinct tasks on %d units\n\n",
		apps, workload.UniverseSize(pool), rus)

	configs := []struct {
		label string
		cfg   core.Config
	}{
		{"LRU (classic cache baseline)", core.Config{Policy: "lru"}},
		{"FIFO", core.Config{Policy: "fifo"}},
		{"Local LFD (1)", core.Config{Policy: "locallfd:1"}},
		{"Local LFD (1) + Skip Events", core.Config{Policy: "locallfd:1", SkipEvents: true}},
		{"Local LFD (4) + Skip Events", core.Config{Policy: "locallfd:4", SkipEvents: true}},
		{"LFD (clairvoyant optimum)", core.Config{Policy: "lfd"}},
	}
	labels := make([]string, len(configs))
	for i, c := range configs {
		labels[i] = c.label
	}
	tab := metrics.NewStreamTable(w, metrics.StreamTableConfig{
		XLabel:    "policy",
		RowLabels: labels,
		XValues:   []string{"reuse %", "overhead", "remaining %"},
	})
	for _, c := range configs {
		c.cfg.RUs = rus
		c.cfg.Latency = workload.PaperLatency()
		res, err := core.Evaluate(c.cfg, seq...)
		if err != nil {
			return err
		}
		s := res.Summary
		if err := tab.Row(c.label,
			fmt.Sprintf("%.2f", s.ReuseRate()),
			s.Overhead().String(),
			fmt.Sprintf("%.2f", s.RemainingOverheadPct())); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\nNote how Local LFD with skip events exceeds even clairvoyant LFD on")
	fmt.Fprintln(w, "reuse: LFD must load as soon as possible, while the hybrid technique")
	fmt.Fprintln(w, "may delay a load to protect a configuration it knows will be needed.")
	return nil
}
