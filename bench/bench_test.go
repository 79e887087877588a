package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metric and workload declarations in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i] || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the benchmark runs %q", i, w.Name, w.Why, Workloads[i])
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(EndToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		want := EndToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(PerLayer))
	}
	for i, m := range b.PerLayer {
		want := PerLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
}

// checkMetrics asserts a result reports exactly the declared metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, name string, got map[string]Value, want []Metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", name, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not reported", name, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s reported in %q, declared in %q", name, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced. Each
// run passes the correctness gate (the seed has goldens, and every unit
// is compared with the first, traced ones included) and reports exactly
// the declared metrics.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	start := time.Now()
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			res, err := Run(Options{Workload: w, Seed: 2011, Scale: Smoke, Trace: traced, TraceDir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d failed of %d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			if traced {
				checkMetrics(t, w+" traced", res.Metrics, PerLayer)
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			} else {
				checkMetrics(t, w, res.Metrics, EndToEnd)
				for _, m := range EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
	t.Logf("smoke runs took %v", time.Since(start))
}

// TestGoldensCover checks that every workload has goldens for the golden
// seeds at both scales, so the correctness gate compares against them.
func TestGoldensCover(t *testing.T) {
	grids, err := loadGridGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scale{Smoke, Full} {
		sz := sizes[sc]
		for _, seed := range GoldenSeeds {
			for _, k := range []string{gridKey("fig9-window", sz.windowApps, seed), gridKey("fig9-lfd", sz.lfdApps, seed)} {
				if _, ok := grids[k]; !ok {
					t.Errorf("no golden grid %s", k)
				}
			}
			if _, err := testdata.ReadFile("testdata/" + reportFile(sz.suiteApps, seed)); err != nil {
				t.Errorf("no golden report: %v", err)
			}
		}
	}
}

// TestGateNamesFirstDifference shows the gate rejects a wrong output and
// names where it departs: the scenario for grids, the line for reports.
func TestGateNamesFirstDifference(t *testing.T) {
	f := newFig9LFD(2011, sizes[Smoke])
	if err := f.setup(); err != nil {
		t.Fatal(err)
	}
	_, stats, err := f.collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGoldenGrid(f.name, f.seed, f.apps, stats, f.names); err != nil {
		t.Fatalf("correct grid rejected: %v", err)
	}
	bad := append([]scenarioStats(nil), stats...)
	bad[3].Reused++
	err = checkGoldenGrid(f.name, f.seed, f.apps, bad, f.names)
	if err == nil || !strings.Contains(err.Error(), "scenario 3 ("+f.names[3]+")") {
		t.Errorf("perturbed scenario 3: got %v", err)
	}
	if err := diffGrid(stats, bad, f.names, "the first unit"); err == nil || !strings.Contains(err.Error(), "scenario 3") {
		t.Errorf("diffGrid: got %v", err)
	}
	err = diffReport("a\nb\nc\n", "a\nb\nx\n", "the cold render")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("diffReport: got %v", err)
	}
}

// TestGolden rewrites the golden files with -update. The reports are
// rendered without a store, independently of both suite workloads.
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite the golden files")
	}
	grids := make(map[string]gridGolden)
	for _, sc := range []Scale{Smoke, Full} {
		sz := sizes[sc]
		for _, seed := range GoldenSeeds {
			for _, f := range []*fig9{newFig9Window(seed, sz), newFig9LFD(seed, sz)} {
				if err := f.setup(); err != nil {
					t.Fatal(err)
				}
				_, stats, err := f.collect(nil)
				if err != nil {
					t.Fatal(err)
				}
				g := gridGolden{Digest: gridDigest(stats)}
				for _, s := range stats {
					g.Scenarios = append(g.Scenarios, s.digest())
				}
				grids[gridKey(f.name, f.apps, seed)] = g
			}
			var report strings.Builder
			if err := campaign.RenderSuite(suiteOptions(seed, sz.suiteApps), selectSuite(), &report); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("testdata", reportFile(sz.suiteApps, seed)), []byte(report.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := json.MarshalIndent(grids, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
