package coord

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/backendurl"
)

// Backend is the persistence substrate under a Coordinator: a small
// key→bytes map with one extra primitive, exclusive Create — the claim
// operation the whole protocol rests on. Keys are slash-separated
// logical paths identical to the historical on-disk layout
// ("coordinator.json", "shard-0007/gen-0001.claim", …), so the fs
// backend *is* the historical format, byte for byte, and operators
// (and cmd/rtrrepro's TestEndToEnd, which counts claim markers) can
// keep inspecting the state directory with ls.
//
// All protocol semantics — initialise-vs-adopt, generation numbering,
// lease expiry, the clock-skew clamp, drain verdicts — live in
// Coordinator and are therefore identical across backends; a backend
// moves bytes and tells the time. internal/coordtest runs the shared
// conformance suite against every registered backend.
//
// The clock lives on the backend (Now) so every expiry decision —
// claims, Status, CheckDrained, ShardStatus.LastActivity clamping —
// comes from one injected source: a fake-clock test exercises the
// exact arithmetic production runs.
type Backend interface {
	// Get returns the bytes under key; a missing key is fs.ErrNotExist.
	Get(key string) ([]byte, error)
	// Put atomically writes key, overwriting: a concurrent Get sees
	// the old bytes or the new, never a torn mix.
	Put(key string, data []byte) error
	// Create atomically writes key only if absent, failing with
	// fs.ErrExist otherwise: of any number of concurrent creators,
	// exactly one succeeds. A crash mid-Create must never leave a
	// half-written value at key.
	Create(key string, data []byte) error
	// List returns the entry names directly under the given key
	// prefix ("shard-0007" → ["done.json", "gen-0001.claim", …]); a
	// prefix nothing was ever written under may return fs.ErrNotExist
	// or an empty list.
	List(dir string) ([]string, error)
	// Now is the pool-wide clock for every lease-expiry decision.
	Now() time.Time
	// Location names where the state lives, for operator-facing
	// messages: the state directory for fs, "mem:", the campaign URL for http.
	Location() string
}

// OpenBackend resolves a CLI backend locator (see internal/backendurl;
// same syntax as -store) into a coordinator backend, attributing parse
// errors to the given flag. opts tunes the wire client for http(s)
// locators (token, timeout); at most one may be passed.
func OpenBackend(flag, locator string, opts ...backendurl.HTTPOptions) (Backend, error) {
	loc, err := backendurl.Parse(flag, locator)
	if err != nil {
		return nil, err
	}
	switch loc.Scheme {
	case backendurl.SchemeMem:
		return NewMem(), nil
	case backendurl.SchemeHTTP, backendurl.SchemeHTTPS:
		var o backendurl.HTTPOptions
		if len(opts) > 0 {
			o = opts[0]
		}
		return backendurl.NewHTTPCoord(loc, o)
	default:
		return NewFS(loc.Path), nil
	}
}

// The wire backend implements the Backend contract structurally —
// backendurl cannot import this package — so pin it here.
var _ Backend = (*backendurl.HTTPCoord)(nil)

// getJSON decodes one state record. fs.ErrNotExist passes through for
// existence checks.
func getJSON[T any](b Backend, key string) (*T, error) {
	data, err := b.Get(key)
	if err != nil {
		return nil, err
	}
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("decode %s: %w", key, err)
	}
	return &v, nil
}

// createJSON writes a state record with Create semantics: exactly one
// concurrent creator succeeds (fs.ErrExist otherwise), atomically.
func createJSON(b Backend, key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return b.Create(key, data)
}

// putJSON writes a state record atomically, overwriting.
func putJSON(b Backend, key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return b.Put(key, data)
}
