package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Layer names are the repository's module names. Policy, mobility and
// runtime have no spans: their time comes from counters.
const (
	layerBench       = "bench"
	layerCampaign    = "campaign"
	layerExperiments = "experiments"
	layerSweep       = "sweep"
	layerManager     = "manager"
	layerPolicy      = "policy"
	layerMobility    = "mobility"
	layerArtifact    = "artifact"
	layerResultstore = "resultstore"
	layerCoord       = "coord"
	layerBackendurl  = "backendurl"
	layerServe       = "serve"
	layerRuntime     = "runtime"
)

// layers orders the self-time table, callers before callees.
var layers = []string{
	layerBench, layerCampaign, layerExperiments, layerSweep, layerManager, layerPolicy,
	layerMobility, layerArtifact, layerResultstore, layerCoord, layerBackendurl, layerServe, layerRuntime,
}

// spanHeader carries the client span id to the server, so a request's
// server span is a child of the round trip that sent it.
const spanHeader = "Rtrbench-Span"

// span is one timed interval at a layer boundary. Times are offsets from
// the tracer's start.
type span struct {
	trace, id, parent int
	layer, name       string
	start, end        time.Duration
	gid               int64
}

// tracer keeps the spans of a traced run in memory. A span's parent is
// the innermost span still open on the same goroutine, or the fallback
// its caller names when the goroutine has none open — work the library
// hands to its own goroutines (executor workers, heartbeats, the server)
// cannot carry a parent otherwise, because the layers pass no context.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	stacks map[int64][]int // goroutine id → open span ids, innermost last
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stacks: make(map[int64][]int)}
}

func (t *tracer) begin(trace int, layer, name string, fallback int) int {
	g := goid()
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := fallback
	if st := t.stacks[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{trace: trace, id: id, parent: parent, layer: layer, name: name, start: now, end: -1, gid: g})
	t.stacks[g] = append(t.stacks[g], id)
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = now
	st := t.stacks[s.gid]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.stacks, s.gid)
	} else {
		t.stacks[s.gid] = st
	}
	return s.end - s.start
}

// add records a span that has already ended at end and lasted d.
func (t *tracer) add(trace int, layer, name string, fallback int, d time.Duration, end time.Time) {
	g := goid()
	stop := end.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := fallback
	if st := t.stacks[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{trace: trace, id: len(t.spans) + 1, parent: parent, layer: layer, name: name, start: stop - d, end: stop, gid: g})
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). Only traced runs pay for it.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(bytes.TrimPrefix(buf[:n], []byte("goroutine ")))
	if len(f) == 0 {
		return 0
	}
	id, _ := strconv.ParseInt(string(f[0]), 10, 64)
	return id
}

// layerTime is the time spans of one layer covered.
type layerTime struct {
	spans       int
	total, self time.Duration
}

// selfTimes sums, per layer, each span's duration and its self time: the
// duration minus the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent > 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		lt := out[s.layer]
		if lt == nil {
			lt = &layerTime{}
			out[s.layer] = lt
		}
		var iv [][2]time.Duration
		for _, c := range children[s.id] {
			cs := t.spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if cs.end >= 0 && hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		d := s.end - s.start
		lt.spans++
		lt.total += d
		lt.self += d - unionLen(iv)
	}
	return out
}

func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var lo, hi time.Duration = 0, -1
	for _, x := range iv {
		if x[0] > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// spansPerTrace counts the spans of each traced unit.
func (t *tracer) spansPerTrace() map[int]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]int)
	for _, s := range t.spans {
		out[s.trace]++
	}
	return out
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes DIR/trace-<workload>.json, loadable in chrome://tracing
// or Perfetto.
func (t *tracer) writeChrome(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.gid,
			Args: map[string]int{"trace_id": s.trace, "span_id": s.id, "parent_id": s.parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, data, 0o644)
}
