package sweep

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// BenchmarkScenario times one Fig. 9 scenario per Collect, at 2000
// applications on one worker and with no store, for the figure's
// cheapest and costliest policies at both ends of its RU range. It
// reports ns/event over Run.Events, so unlike manager's
// BenchmarkEventLoop it counts the per-run work of a sweep scenario:
// building the workload's arrivals, the ideal baseline, the Result
// snapshot and the summary. The mobility tables come from the warm
// process-wide cache after the first iteration.
//
//	go test -run '^$' -bench Scenario -benchmem ./internal/sweep/
func BenchmarkScenario(b *testing.B) {
	pool := workload.Multimedia()
	seq, err := dynlist.RandomSequence(pool, 2000, rand.New(rand.NewSource(2011)))
	if err != nil {
		b.Fatal(err)
	}
	policies := []PolicySpec{
		Fixed("LRU", policy.NewLRU()),
		LocalLFD(1, true),
		Fixed("LFD", policy.NewLFD()),
	}
	names := []string{"LRU", "LocalLFD1+Skip", "LFD"}
	for _, rus := range []int{4, 10} {
		for i, pol := range policies {
			spec := Spec{
				Workloads: []Workload{{Label: "seed 2011", Pool: pool, Seq: seq}},
				RUs:       []int{rus},
				Latencies: []simtime.Time{workload.PaperLatency()},
				Policies:  []PolicySpec{pol},
			}
			b.Run(fmt.Sprintf("R%d/%s", rus, names[i]), func(b *testing.B) {
				ex := Executor{Workers: 1}
				var events uint64
				count := CollectorFunc(func(r *Result) error {
					events += r.Run.Events
					return nil
				})
				b.ReportAllocs()
				for range b.N {
					if err := ex.Collect(spec, count); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			})
		}
	}
}
