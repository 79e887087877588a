package experiments

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// TestParallelReportsByteIdentical is the report-level determinism pin:
// every sweep-backed experiment must emit byte-identical text whether its
// scenarios run one at a time or eight at a time. Run under -race (CI
// does) this doubles as the concurrency check for the whole
// experiments → sweep → manager stack.
func TestParallelReportsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid sweep in -short mode")
	}
	base := Options{Seed: 2011, Apps: 60, RUs: []int{4, 5, 6}}
	runners := map[string]Runner{
		"fig9a":       Fig9A,
		"fig9b":       Fig9B,
		"fig9c":       Fig9C,
		"table1":      TableI,
		"table2":      TableII,
		"ablation":    Ablation,
		"energy":      EnergyExperiment,
		"sensitivity": Sensitivity,
		"prefetch":    Prefetch,
		"variance":    Variance,
	}
	for name, run := range runners {
		t.Run(name, func(t *testing.T) {
			render := func(parallel int) (string, error) {
				opt := base
				opt.Parallel = parallel
				var buf bytes.Buffer
				err := run(opt, &buf)
				return buf.String(), err
			}
			seq, err := render(1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := render(8)
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("parallel report diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
			}
			if len(seq) == 0 {
				t.Error("empty report")
			}
		})
	}
}

// TestParallelReportsStableAcrossRepeats re-renders one grid experiment
// several times at high parallelism: scheduling noise must never reach
// the report.
func TestParallelReportsStableAcrossRepeats(t *testing.T) {
	opt := Options{Seed: 2011, Apps: 40, RUs: []int{4, 5}, Parallel: 8}
	render := func(w io.Writer) error { return Fig9B(opt, w) }
	var first bytes.Buffer
	if err := render(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != first.String() {
			t.Fatalf("repeat %d diverged", i)
		}
	}
	if !bytes.Contains(first.Bytes(), []byte("Skip Events")) {
		t.Error(fmt.Errorf("report missing the skip-events series:\n%s", first.String()))
	}
}
