// Package serve is the sweep control plane behind cmd/rtrserved: a
// stdlib net/http server hosting any number of campaigns, each a
// resultstore.Backend + coord.Backend pair living under one state
// root (an fs directory or memory — the same
// locator syntax the CLIs use). The versioned JSON/SSE protocol it
// speaks is defined in internal/serve/wire; the client half is the
// http:/https: scheme in internal/backendurl.
//
// The server deliberately implements no sweep semantics of its own.
// Store invariants (key validation, schema stamping, GC predicate)
// and the whole coordinator lease protocol stay client-side, exactly
// as they do over the fs and mem backends: a campaign endpoint
// only moves bytes, offers exclusive-create, and tells the time. That
// symmetry is what lets the storetest/coordtest conformance suites
// pass unmodified against a live server, and it is why this package
// must not import internal/sweep or internal/experiments (their test
// packages reach the suites through storetest) — the one place the
// server *renders* anything, GET /v1/campaigns/{id}/rows, does so
// through the RowsFunc callback cmd/rtrserved injects from
// internal/campaign.
//
// Endpoints (bearer-token auth on everything but /healthz):
//
//	POST   /v1/campaigns                submit a wire.Spec, get {id, path}
//	GET    /v1/campaigns/{id}/status    pool snapshot + drain/dead verdict
//	GET    /v1/campaigns/{id}/rows      report rows as SSE, live while the pool populates
//	GET    /healthz                     liveness, unauthenticated
//	GET    /c/{id}/now                  pool clock
//	GET    /c/{id}/store/o/{key}        store object read
//	PUT    /c/{id}/store/o/{key}        store object write (atomic overwrite)
//	DELETE /c/{id}/store/o/{key}        store object delete (absent ok)
//	GET    /c/{id}/store/visit          NDJSON enumeration + junk trailer
//	GET    /c/{id}/coord/k/{key...}     coordinator record read (404 = absent)
//	PUT    /c/{id}/coord/k/{key...}     coordinator record overwrite
//	POST   /c/{id}/coord/k/{key...}     exclusive create (409 = claim lost)
//	GET    /c/{id}/coord/list?dir=D     names under a coordinator prefix
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/backendurl"
	"repro/internal/coord"
	"repro/internal/resultstore"
	"repro/internal/serve/wire"
)

// RowsFunc renders a campaign's report into w, blocking until the
// pool drains (or dies, or ctx is cancelled). cmd/rtrserved injects
// internal/campaign.Render; servers without one 501 the rows route.
type RowsFunc func(ctx context.Context, c *Campaign, w io.Writer) error

// Config configures a Server.
type Config struct {
	// State locates the campaign state root using the CLI locator
	// syntax: a directory (or fs:DIR) keeps one subdirectory per
	// campaign, mem: everything in process memory.
	State string
	// Token, when non-empty, is required as "Authorization: Bearer
	// <Token>" on every request except GET /healthz.
	Token string
	// Rows renders GET /v1/campaigns/{id}/rows; nil disables the route.
	Rows RowsFunc
	// Check, when non-nil, vets a submitted spec beyond wire.DecodeSpec
	// (unknown experiments, unparsable policies) before the campaign is
	// created.
	Check func(wire.Spec) error
	// Log receives request-level diagnostics; nil discards them.
	Log *log.Logger
}

// Campaign is one hosted store+coordinator pair.
type Campaign struct {
	id    string
	spec  wire.Spec
	store resultstore.Backend
	coord coord.Backend
}

// ID returns the campaign identifier (the {id} path element).
func (c *Campaign) ID() string { return c.id }

// Spec returns the submitted campaign spec.
func (c *Campaign) Spec() wire.Spec { return c.spec }

// Store returns a fresh *resultstore.Store handle over the campaign's
// backend — shared data, per-handle counters, exactly what reopening a
// locator gives a CLI.
func (c *Campaign) Store() *resultstore.Store { return resultstore.FromBackend(c.store) }

// Coord returns the campaign's coordinator backend.
func (c *Campaign) Coord() coord.Backend { return c.coord }

// root is the campaign state substrate: where specs and backends live.
type root interface {
	// create persists a new campaign's spec exclusively: fs.ErrExist
	// when the id is taken.
	create(id string, spec []byte) error
	// open returns the stored spec and the campaign's backends;
	// fs.ErrNotExist for an unknown id.
	open(id string) ([]byte, resultstore.Backend, coord.Backend, error)
	location() string
}

// Server hosts campaigns over a state root. Create with New.
type Server struct {
	cfg  Config
	log  *log.Logger
	root root

	mu    sync.Mutex
	camps map[string]*Campaign
}

// New opens (creating if needed) the state root and returns a Server.
func New(cfg Config) (*Server, error) {
	loc, err := backendurl.Parse("-state", cfg.State)
	if err != nil {
		return nil, err
	}
	var r root
	switch loc.Scheme {
	case backendurl.SchemeFS:
		if err := os.MkdirAll(loc.Path, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		r = fsRoot{dir: loc.Path}
	case backendurl.SchemeMem:
		r = &memRoot{camps: map[string]memCampaign{}}
	default:
		return nil, fmt.Errorf("serve: -state %s: a server cannot chain to another server (want fs:DIR or mem:)", loc.Scheme)
	}
	lg := cfg.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	return &Server{cfg: cfg, log: lg, root: r, camps: map[string]*Campaign{}}, nil
}

// Location names the state root, for startup banners.
func (s *Server) Location() string { return s.root.location() }

// Create registers a new campaign for the given (already decoded)
// spec and returns it.
func (s *Server) Create(spec wire.Spec) (*Campaign, error) {
	if s.cfg.Check != nil {
		if err := s.cfg.Check(spec); err != nil {
			return nil, err
		}
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	for range 4 {
		var raw [8]byte
		if _, err := rand.Read(raw[:]); err != nil {
			return nil, err
		}
		id := hex.EncodeToString(raw[:])
		err := s.root.create(id, data)
		if errors.Is(err, fs.ErrExist) {
			continue // astronomically unlikely collision; reroll
		}
		if err != nil {
			return nil, err
		}
		return s.Campaign(id)
	}
	return nil, errors.New("serve: could not allocate a campaign id")
}

// validID keeps campaign ids shaped like the ones Create mints, which
// is also what keeps fs roots free of path traversal.
func validID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, r := range id {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// Campaign returns the campaign by id, lazily opening its backends
// from the state root (so a restarted server re-serves every campaign
// on disk). fs.ErrNotExist for an unknown id.
func (s *Server) Campaign(id string) (*Campaign, error) {
	if !validID(id) {
		return nil, fs.ErrNotExist
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.camps[id]; ok {
		return c, nil
	}
	data, sb, cb, err := s.root.open(id)
	if err != nil {
		return nil, err
	}
	var spec wire.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("serve: campaign %s: corrupt spec: %v", id, err)
	}
	c := &Campaign{id: id, spec: spec, store: sb, coord: cb}
	s.camps[id] = c
	return c, nil
}

// fsRoot keeps one directory per campaign: DIR/<id>/{spec.json,
// store/, coord/} — the same layouts the CLIs' fs locators use, so an
// operator can inspect (or even point a filesystem worker at) a
// hosted campaign directly.
type fsRoot struct{ dir string }

func (r fsRoot) location() string { return r.dir }

func (r fsRoot) create(id string, spec []byte) error {
	dir := filepath.Join(r.dir, id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err // fs.ErrExist passes through
	}
	return os.WriteFile(filepath.Join(dir, "spec.json"), spec, 0o644)
}

func (r fsRoot) open(id string) ([]byte, resultstore.Backend, coord.Backend, error) {
	dir := filepath.Join(r.dir, id)
	spec, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, nil, nil, err
	}
	sb, err := resultstore.NewFS(filepath.Join(dir, "store"))
	if err != nil {
		return nil, nil, nil, err
	}
	return spec, sb, coord.NewFS(filepath.Join(dir, "coord")), nil
}

// memRoot holds everything in process memory (tests, demos).
type memRoot struct {
	mu    sync.Mutex
	camps map[string]memCampaign
}

type memCampaign struct {
	spec  []byte
	store resultstore.Backend
	coord coord.Backend
}

func (r *memRoot) location() string { return "mem:" }

func (r *memRoot) create(id string, spec []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.camps[id]; ok {
		return fs.ErrExist
	}
	r.camps[id] = memCampaign{spec: spec, store: resultstore.NewMem(), coord: coord.NewMem()}
	return nil
}

func (r *memRoot) open(id string) ([]byte, resultstore.Backend, coord.Backend, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.camps[id]
	if !ok {
		return nil, nil, nil, fs.ErrNotExist
	}
	return c.spec, c.store, c.coord, nil
}
