// Package faultstore wraps result-store and coordinator backends with
// scripted and seeded fault injection: errors, latency, and torn
// writes. It is the test substrate for every recovery path this module
// promises — checkpointed resume, coord re-lease, GC of torn entries —
// and doubles as a registered conformance decorator
// (the "fault" backend of internal/storetest and internal/coordtest), so
// the backend contracts are exercised under injected timing jitter too.
//
// A Plan is the shared fault schedule: scripted faults (FailNext,
// TornNext) fire deterministically on the next matching operations,
// while WithLatency adds seeded, bounded real-time delays to every
// call. Latency never changes semantics — conformance suites assert
// exact counter values, so the decorator they register injects latency
// only; the destructive modes are for dedicated recovery tests.
package faultstore

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/resultstore"
)

// Op names an interceptable backend operation, e.g. "store.store" or
// "coord.put". The wildcard "*" matches every operation.
const (
	OpStoreLoad   = "store.load"
	OpStoreStore  = "store.store"
	OpStoreVisit  = "store.visit"
	OpStoreDelete = "store.delete"
	OpCoordGet    = "coord.get"
	OpCoordPut    = "coord.put"
	OpCoordCreate = "coord.create"
	OpCoordList   = "coord.list"
)

type mode int

const (
	modeFail mode = iota
	modeTorn
)

// script is one scheduled fault: the next `remaining` operations
// matching (op, key substring) misbehave.
type script struct {
	op        string
	keyMatch  string
	remaining int
	mode      mode
}

// Plan is a fault schedule shared by any number of wrapped backends.
// All methods are safe for concurrent use.
type Plan struct {
	mu         sync.Mutex
	rng        *rand.Rand
	maxLatency time.Duration
	scripts    []*script
	injected   map[string]int
}

// NewPlan returns an empty schedule; seed drives the latency jitter, so
// a failing run reproduces exactly.
func NewPlan(seed int64) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed)), injected: make(map[string]int)}
}

// WithLatency makes every wrapped call sleep a seeded duration in
// [0, max). Keep it small (sub-millisecond) next to fake-clock tests:
// the sleep is real time, never the injected clock.
func (p *Plan) WithLatency(max time.Duration) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.maxLatency = max
	return p
}

// FailNext scripts the next n operations matching op (exact name or
// "*") and keyMatch (substring; "" matches all keys) to fail without
// touching the underlying backend.
func (p *Plan) FailNext(op, keyMatch string, n int) *Plan {
	return p.script(op, keyMatch, n, modeFail)
}

// TornNext scripts the next n matching writes to tear: half the bytes
// reach the real backend, then the call fails. Reads and other
// non-write operations scripted this way simply fail.
func (p *Plan) TornNext(op, keyMatch string, n int) *Plan {
	return p.script(op, keyMatch, n, modeTorn)
}

func (p *Plan) script(op, keyMatch string, n int, m mode) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.scripts = append(p.scripts, &script{op: op, keyMatch: keyMatch, remaining: n, mode: m})
	return p
}

// Injected reports how many faults fired, by operation name.
func (p *Plan) Injected() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.injected))
	for k, v := range p.injected {
		out[k] = v
	}
	return out
}

// InjectedTotal reports how many faults fired across all operations.
func (p *Plan) InjectedTotal() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, v := range p.injected {
		n += v
	}
	return n
}

// before runs the pre-call schedule for one operation: the seeded
// latency, then the first matching script, consuming one shot of it.
// torn=true means "write a torn prefix, then fail"; err != nil alone
// means "fail outright".
func (p *Plan) before(op, key string) (torn bool, err error) {
	p.mu.Lock()
	var sleep time.Duration
	if p.maxLatency > 0 {
		sleep = time.Duration(p.rng.Int63n(int64(p.maxLatency)))
	}
	var hit *script
	for _, s := range p.scripts {
		if s.remaining > 0 && (s.op == "*" || s.op == op) && strings.Contains(key, s.keyMatch) {
			hit = s
			break
		}
	}
	if hit != nil {
		hit.remaining--
		p.injected[op]++
	}
	p.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if hit == nil {
		return false, nil
	}
	err = fmt.Errorf("faultstore: injected %s fault on %q", op, key)
	return hit.mode == modeTorn, err
}

// tearData is the torn prefix a TornNext write leaves behind: half the
// payload, which for every JSON record this module persists is
// undecodable junk the reader must reject and GC must sweep.
func tearData(data []byte) []byte {
	return data[:len(data)/2]
}

// faultyStore decorates a resultstore.Backend with a Plan.
type faultyStore struct {
	b    resultstore.Backend
	plan *Plan
}

// WrapStore returns b with plan's faults injected. The Location is
// tagged so digests show the decoration.
func WrapStore(b resultstore.Backend, plan *Plan) resultstore.Backend {
	return &faultyStore{b: b, plan: plan}
}

func (f *faultyStore) Load(key string) ([]byte, bool) {
	// A store load has no error channel: an injected fault reads as a
	// miss, exactly how the store treats an unreadable entry.
	if _, err := f.plan.before(OpStoreLoad, key); err != nil {
		return nil, false
	}
	return f.b.Load(key)
}

func (f *faultyStore) Store(key string, data []byte) error {
	torn, err := f.plan.before(OpStoreStore, key)
	if err != nil {
		if torn {
			_ = f.b.Store(key, tearData(data))
		}
		return err
	}
	return f.b.Store(key, data)
}

func (f *faultyStore) Visit(fn func(key string, data []byte) error) (int, error) {
	if _, err := f.plan.before(OpStoreVisit, ""); err != nil {
		return 0, err
	}
	return f.b.Visit(fn)
}

func (f *faultyStore) Delete(key string) error {
	if _, err := f.plan.before(OpStoreDelete, key); err != nil {
		return err
	}
	return f.b.Delete(key)
}

func (f *faultyStore) Location() string { return "fault(" + f.b.Location() + ")" }

// faultyCoord decorates a coord.Backend with a Plan. Now is never
// intercepted: lease-expiry arithmetic runs on the pool clock (often a
// fake one in tests), and faulting it would test the clock, not the
// protocol.
type faultyCoord struct {
	b    coord.Backend
	plan *Plan
}

// WrapCoord returns b with plan's faults injected.
func WrapCoord(b coord.Backend, plan *Plan) coord.Backend {
	return &faultyCoord{b: b, plan: plan}
}

func (f *faultyCoord) Get(key string) ([]byte, error) {
	if _, err := f.plan.before(OpCoordGet, key); err != nil {
		return nil, err
	}
	return f.b.Get(key)
}

func (f *faultyCoord) Put(key string, data []byte) error {
	torn, err := f.plan.before(OpCoordPut, key)
	if err != nil {
		if torn {
			_ = f.b.Put(key, tearData(data))
		}
		return err
	}
	return f.b.Put(key, data)
}

func (f *faultyCoord) Create(key string, data []byte) error {
	// Create is the exactly-once claim primitive; a torn script fails it
	// without writing — a half-written claim no one holds would wedge
	// the shard for a full TTL, which is a different (and by
	// construction impossible) failure than the torn overwrites
	// TornNext models.
	if _, err := f.plan.before(OpCoordCreate, key); err != nil {
		return err
	}
	return f.b.Create(key, data)
}

func (f *faultyCoord) List(dir string) ([]string, error) {
	if _, err := f.plan.before(OpCoordList, dir); err != nil {
		return nil, err
	}
	return f.b.List(dir)
}

func (f *faultyCoord) Now() time.Time { return f.b.Now() }

func (f *faultyCoord) Location() string { return "fault(" + f.b.Location() + ")" }
