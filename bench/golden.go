package bench

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
)

// Golden outputs for seeds 2011 and 7 at both scales: per-scenario
// digests of the fig9 grids in golden.json, and the suite report the
// store-warm-fs and campaign-http workloads must both reproduce byte for
// byte in report-<apps>-<seed>.txt. Regenerate them with
// `go test -run TestGolden -update` after a change that is meant to
// alter simulated results.
//
//go:embed testdata
var testdata embed.FS

// GoldenSeeds are the seeds the golden files cover.
var GoldenSeeds = []int64{2011, 7}

// gridGolden is one grid's golden output.
type gridGolden struct {
	Digest    string   `json:"digest"`
	Scenarios []string `json:"scenarios"`
}

func gridKey(workload string, apps int, seed int64) string {
	return fmt.Sprintf("%s/%d/%d", workload, apps, seed)
}

func reportFile(apps int, seed int64) string {
	return fmt.Sprintf("report-%d-%d.txt", apps, seed)
}

func loadGridGoldens() (map[string]gridGolden, error) {
	data, err := testdata.ReadFile("testdata/golden.json")
	if err != nil {
		return nil, err
	}
	var g map[string]gridGolden
	return g, json.Unmarshal(data, &g)
}

// checkGoldenGrid compares a grid's statistics with its golden digests,
// naming the first scenario that differs. Seeds without goldens pass.
func checkGoldenGrid(workload string, seed int64, apps int, stats []scenarioStats, names []string) error {
	goldens, err := loadGridGoldens()
	if err != nil {
		return fmt.Errorf("golden digests: %w", err)
	}
	g, ok := goldens[gridKey(workload, apps, seed)]
	if !ok {
		return nil
	}
	if len(g.Scenarios) != len(stats) {
		return fmt.Errorf("correctness: %d scenarios, the golden grid has %d", len(stats), len(g.Scenarios))
	}
	for i, s := range stats {
		if d := s.digest(); d != g.Scenarios[i] {
			return fmt.Errorf("correctness: scenario %d (%s) differs from the golden digest for seed %d: %+v digests to %s, want %s",
				i, names[i], seed, s, d, g.Scenarios[i])
		}
	}
	if d := gridDigest(stats); d != g.Digest {
		return fmt.Errorf("correctness: grid digest %s, golden %s for seed %d", d, g.Digest, seed)
	}
	return nil
}

// checkGoldenReport compares a suite report with the golden one, naming
// the first line that differs. Seeds without a golden report pass.
func checkGoldenReport(seed int64, apps int, report string) error {
	want, err := testdata.ReadFile("testdata/" + reportFile(apps, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("golden report: %w", err)
	}
	return diffReport(string(want), report, fmt.Sprintf("the golden report for seed %d", seed))
}
