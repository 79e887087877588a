package sweep

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/resultstore"
	"repro/internal/taskgraph"
)

// ErrUncacheable marks a Spec whose scenarios cannot be identified by a
// canonical config hash, and which therefore bypasses the persisted
// result store: trace-recording sweeps (traces are not serialized),
// sweeps with a per-task latency function (a func has no canonical
// encoding), workloads with timed arrivals (scenario keys hash the
// sequence, not its timing), and policy axis values without a Key.
var ErrUncacheable = errors.New("spec not cacheable")

// Cacheable reports whether the Spec's scenarios can be served from and
// written to a result store. A nil error means yes; otherwise the error
// wraps ErrUncacheable and names the first obstacle.
func (s *Spec) Cacheable() error {
	if s.RecordTrace {
		return fmt.Errorf("%w: trace recording requested (traces are not serialized)", ErrUncacheable)
	}
	if s.LatencyFor != nil {
		return fmt.Errorf("%w: per-task latency function set (no canonical encoding)", ErrUncacheable)
	}
	for i, w := range s.Workloads {
		if w.Arrivals != nil {
			return fmt.Errorf("%w: workload %d (%q) has timed arrivals", ErrUncacheable, i, w.Label)
		}
	}
	for i, p := range s.Policies {
		if p.Key == "" {
			return fmt.Errorf("%w: policy %d (%q) has no canonical Key", ErrUncacheable, i, p.Name)
		}
	}
	return nil
}

// ScenarioKeys computes the canonical config hash of every scenario the
// Spec expands to, in spec order. The hash folds in everything that
// determines a scenario's configuration: the full workload content
// (template structure and arrival sequence — which subsumes the
// generator seed), the unit count, the reconfiguration latency, the
// policy key and display name, every feature flag, and whether the ideal
// baseline is computed. The store schema version is deliberately not an
// input — it lives inside each entry, so a bump invalidates stored
// outcomes without moving their keys (see resultstore.NewHash). Distinct scenarios hashing to
// the same key (content-duplicate axis values that slipped past
// validate's structural check) are an error: the grid would silently
// simulate the same configuration twice.
func (s *Spec) ScenarioKeys() ([]string, error) {
	if err := s.Cacheable(); err != nil {
		return nil, err
	}
	scenarios, err := s.Expand()
	if err != nil {
		return nil, err
	}
	return s.scenarioKeysFor(scenarios)
}

// scenarioKeysFor computes the keys for already-expanded scenarios —
// keys[i] identifies scenarios[i]. The executor uses this to avoid a
// second Expand; callers must have checked Cacheable.
func (s *Spec) scenarioKeysFor(scenarios []Scenario) ([]string, error) {
	wlKeys := make([]string, len(s.Workloads))
	for i := range s.Workloads {
		k, err := workloadKey(&s.Workloads[i])
		if err != nil {
			return nil, fmt.Errorf("sweep: workload %d (%q): %w", i, s.Workloads[i].Label, err)
		}
		wlKeys[i] = k
	}
	keys := make([]string, len(scenarios))
	seen := make(map[string]int, len(scenarios))
	for i, sc := range scenarios {
		key := scenarioKey(wlKeys[sc.WorkloadIdx], sc, s.NoBaseline)
		if j, dup := seen[key]; dup {
			return nil, fmt.Errorf("sweep: scenarios %d (%s) and %d (%s) share config hash %s — duplicate grid entry",
				j, scenarios[j].Name(), i, sc.Name(), key[:12])
		}
		seen[key] = i
		keys[i] = key
	}
	return keys, nil
}

// workloadKey canonically hashes a workload: its label, the canonical
// JSON encoding of every distinct template (pool order first, then
// first-appearance order in the sequence), and the arrival sequence as
// template indices. Hashing the materialized content rather than the
// generator seed means any change to workload generation invalidates
// store entries automatically.
func workloadKey(w *Workload) (string, error) {
	h := resultstore.NewHash()
	h.String("label", w.Label)
	index := make(map[*taskgraph.Graph]int)
	add := func(g *taskgraph.Graph) error {
		if _, ok := index[g]; ok {
			return nil
		}
		// The graph's memoized canonical encoding: json.Marshal would
		// return the same bytes, re-encoded on every call.
		data, err := g.MarshalJSON()
		if err != nil {
			return fmt.Errorf("encode template %s: %w", g.Name(), err)
		}
		h.Bytes("template:"+strconv.Itoa(len(index)), data)
		index[g] = len(index)
		return nil
	}
	for _, g := range w.Pool {
		if err := add(g); err != nil {
			return "", err
		}
	}
	h.Int("pool", int64(len(w.Pool)))
	for _, g := range w.Seq {
		if err := add(g); err != nil {
			return "", err
		}
	}
	for _, g := range w.Seq {
		h.Int("seq", int64(index[g]))
	}
	return h.Sum(), nil
}

// scenarioKey folds one expanded scenario into its canonical config hash.
func scenarioKey(wlKey string, sc Scenario, noBaseline bool) string {
	h := resultstore.NewHash()
	h.String("workload", wlKey)
	h.Int("rus", int64(sc.RUs))
	h.Int("latency", int64(sc.Latency))
	h.String("policy", sc.Policy.Key)
	h.String("policy_name", sc.Policy.Name)
	h.Bool("skip_events", sc.Policy.Skip)
	h.Bool("cross_graph_prefetch", sc.Policy.CrossGraphPrefetch)
	h.Bool("conservative_prefetch", sc.Policy.ConservativePrefetch)
	h.Bool("baseline", !noBaseline)
	return h.Sum()
}
