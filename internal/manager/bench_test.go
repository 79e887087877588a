package manager

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// BenchmarkEventLoop measures the steady-state hot loop on the paper's
// 500-application workload shape: a warm Runner re-simulating the whole
// sequence, reported per simulated event. The legs are the Fig. 9
// policies at 4 units, plus the costliest of them per event, LocalLFD1
// with skip events, at the grid's top of 10 units. Two custom metrics feed the CI
// budget gate (see .github/workflows/ci.yml):
//
//	ns/event     — wall time per processed simulator event
//	allocs/event — heap allocations per event; must be exactly 0
//
// The snapshot of the escaping Result is deliberately excluded (the
// unexported phases are driven directly): this benchmark isolates the
// loop the tests in reuse_test.go pin to zero allocations.
func BenchmarkEventLoop(b *testing.B) {
	pool := workload.Multimedia()
	seq, err := dynlist.RandomSequence(pool, 500, rand.New(rand.NewSource(20110516)))
	if err != nil {
		b.Fatal(err)
	}
	local, err := policy.NewLocalLFD(1)
	if err != nil {
		b.Fatal(err)
	}
	// Every task gets mobility 1, a stand-in for the design-time tables:
	// internal/mobility imports this package, so a test here cannot
	// compute them.
	ones := make([]int, 64)
	for i := range ones {
		ones[i] = 1
	}
	mobility := func(g *taskgraph.Graph) []int { return ones[:g.NumTasks()] }
	lat := workload.PaperLatency()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"LRU", Config{RUs: 4, Latency: lat, Policy: policy.NewLRU()}},
		{"LocalLFD1", Config{RUs: 4, Latency: lat, Policy: local}},
		{"LocalLFD1+Skip", Config{RUs: 4, Latency: lat, Policy: local, SkipEvents: true, Mobility: mobility}},
		{"LFD", Config{RUs: 4, Latency: lat, Policy: policy.NewLFD()}},
		{"LocalLFD1+Skip/RUs10", Config{RUs: 10, Latency: lat, Policy: local, SkipEvents: true, Mobility: mobility}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.cfg
			run := dynlist.NewSequence(seq...)
			r := NewRunner()
			runOnce := func() uint64 {
				if err := r.Reset(cfg); err != nil {
					b.Fatal(err)
				}
				if err := r.start(run); err != nil {
					b.Fatal(err)
				}
				if err := r.loop(); err != nil {
					b.Fatal(err)
				}
				return r.res.Events
			}
			runOnce() // warm the runner to its high-water mark
			var before, after runtime.MemStats
			b.ResetTimer()
			runtime.ReadMemStats(&before)
			var events uint64
			for i := 0; i < b.N; i++ {
				events += runOnce()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
		})
	}
}
