package bench

import (
	"runtime/debug"
	"sort"
	"time"
)

// Calibration. The host the benchmark was calibrated on is a shared
// two-vCPU virtual machine whose speed drifts with its neighbours' load:
// identical units of work take from 1 to 1.8 times their quiet time, in
// phases lasting from seconds to minutes. The time is user CPU time, so CPU
// time drifts with wall time, and a run caught in a slow phase has no fast
// unit to report. The drift hits allocation- and map-heavy code hardest,
// which is what the simulator, the store and the server run.
//
// So the run times a fixed calibration kernel of that kind before every
// unit and after the last one, and reports each end-to-end time in
// reference seconds: the measured time × refKernel ÷ the mean of the
// kernel times on either side of it. Over twelve 20-second windows of one
// commit, the median unit time of a window spread (IQR ÷ median) by
// 14–27% measured and by 5–8% in reference seconds.
//
// The kernel never calls into the repository, so no change to the program
// can move it, and it runs with the collector off, so the program's heap
// cannot either.

// refKernel is the kernel's time on a quiet calibration host (an Intel
// Xeon vCPU; its fastest of 2394 timings was 10.7 ms), rounded: a reference
// second is a second of that host at the kernel's pace.
const refKernel = 10 * time.Millisecond

// kernelNodes sizes the kernel: about 13 ms on the calibration host and a
// few MiB of heap, which is why peak_rss_mb is read before it first runs.
const kernelNodes = 60000

type kernelNode struct {
	a, b int
	next *kernelNode
}

var kernelSink int

// kernel builds a linked list of kernelNodes nodes indexed by a map, then
// sorts the map's keys, and returns the time it took.
func kernel() time.Duration {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	m := make(map[int]*kernelNode)
	var head *kernelNode
	for i := 0; i < kernelNodes; i++ {
		head = &kernelNode{a: i, b: 3 * i, next: head}
		m[i*7919%100003] = head
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	kernelSink += keys[len(keys)/2] + head.a
	return time.Since(start)
}
