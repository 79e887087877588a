package dynlist

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// RandomArrivals draws n applications uniformly from pool and spaces them
// with exponentially distributed inter-arrival gaps of the given mean —
// a Poisson arrival process, the standard model for the "highly dynamic
// environments" the paper targets. The first application arrives at time
// zero so the system starts busy. Generation is fully determined by rng.
func RandomArrivals(pool []*taskgraph.Graph, n int, meanGap simtime.Time, rng *rand.Rand) ([]Item, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("dynlist: empty graph pool")
	}
	if n < 1 {
		return nil, fmt.Errorf("dynlist: need n ≥ 1, got %d", n)
	}
	if meanGap < 0 {
		return nil, fmt.Errorf("dynlist: negative mean gap %v", meanGap)
	}
	items := make([]Item, n)
	var at simtime.Time
	for i := range items {
		if i > 0 && meanGap > 0 {
			gap := simtime.Time(math.Round(rng.ExpFloat64() * float64(meanGap)))
			at = at.Add(gap)
		}
		items[i] = Item{Graph: pool[rng.Intn(len(pool))], Arrival: at, Instance: i}
	}
	return items, nil
}
