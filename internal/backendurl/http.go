package backendurl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/serve/wire"
)

// This file is the client half of the rtrserved control plane: store
// and coordinator backends that speak the wire protocol over
// http:/https: locators. The types implement resultstore.Backend and
// coord.Backend structurally (this package cannot import either
// without a cycle through their OpenBackend/OpenURL routing); the
// compile-time assertions live next to those switch arms.
//
// All protocol semantics stay client-side, exactly as they do for the
// other backends: the server only moves bytes, tells the time, and
// enforces auth. That is what lets the storetest/coordtest conformance
// suites — and the fake-clock protocol tests — run unmodified against
// a live server.

// HTTPOptions tunes the wire client. The zero value is usable.
type HTTPOptions struct {
	// Token, when non-empty, is sent as "Authorization: Bearer <Token>"
	// on every request.
	Token string
	// Timeout bounds each HTTP attempt (default 1 minute).
	Timeout time.Duration
	// Client overrides the underlying *http.Client (tests).
	Client *http.Client
}

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.Timeout <= 0 {
		o.Timeout = time.Minute
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// httpRetries is the number of extra attempts after a connection error
// or 5xx response; 4xx responses never retry. Backoff is exponential
// starting at 100ms.
const httpRetries = 3

// httpClient is the shared request engine: auth header, per-request
// timeout, retry-with-backoff on 5xx and connection errors.
type httpClient struct {
	base string // campaign base URL, no trailing slash
	o    HTTPOptions
}

func newHTTPClient(loc Locator, o HTTPOptions) (*httpClient, error) {
	if loc.Scheme != SchemeHTTP && loc.Scheme != SchemeHTTPS {
		return nil, fmt.Errorf("backendurl: %s locator is not http/https", loc.Scheme)
	}
	return &httpClient{base: strings.TrimRight(loc.URL(), "/"), o: o.withDefaults()}, nil
}

// errStatus is a non-2xx response, carrying the decoded wire.Error
// message when the server sent one.
type errStatus struct {
	code int
	msg  string
}

func (e *errStatus) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("server returned %d: %s", e.code, e.msg)
	}
	return fmt.Sprintf("server returned %d", e.code)
}

// do issues method on base+path with the given body, retrying
// connection errors and 5xx responses, and returns the response body.
// Non-2xx responses come back as *errStatus.
func (c *httpClient) do(method, path string, body []byte) ([]byte, error) {
	var last error
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt <= httpRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
		data, err := c.once(method, path, body)
		if err == nil {
			return data, nil
		}
		last = err
		var se *errStatus
		if errors.As(err, &se) && se.code < 500 {
			return nil, err // 4xx: the request is wrong, retrying cannot help
		}
	}
	return nil, fmt.Errorf("%s %s%s: %w (after %d attempts)", method, c.base, path, last, httpRetries+1)
}

func (c *httpClient) once(method, path string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.o.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if c.o.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.o.Token)
	}
	resp, err := c.o.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return data, err
	}
	var we wire.Error
	_ = json.Unmarshal(data, &we)
	return nil, &errStatus{code: resp.StatusCode, msg: we.Message}
}

// maxSizedBody bounds the Content-Length readBody trusts for sizing.
const maxSizedBody = 64 << 20

// readBody reads a whole response body like io.ReadAll, into a buffer
// sized from the Content-Length when the server sent one, so a store
// object arrives in one allocation whatever its size.
func readBody(resp *http.Response) ([]byte, error) {
	size := int64(bytes.MinRead) // room to read the EOF without growing
	if n := resp.ContentLength; n > 0 && n <= maxSizedBody {
		size += n
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// notFound reports whether err is a 404 response.
func notFound(err error) bool {
	var se *errStatus
	return errors.As(err, &se) && se.code == http.StatusNotFound
}

// conflict reports whether err is a 409 response.
func conflict(err error) bool {
	var se *errStatus
	return errors.As(err, &se) && se.code == http.StatusConflict
}

// HTTPStore is a resultstore.Backend over the wire: objects live under
// {campaign}/store/o/{key} on an rtrserved instance.
type HTTPStore struct {
	c *httpClient
}

// NewHTTPStore dials nothing — it binds the locator and options; every
// method is an independent request.
func NewHTTPStore(loc Locator, o HTTPOptions) (*HTTPStore, error) {
	c, err := newHTTPClient(loc, o)
	if err != nil {
		return nil, err
	}
	return &HTTPStore{c: c}, nil
}

func (s *HTTPStore) Load(key string) ([]byte, bool) {
	data, err := s.c.do(http.MethodGet, "/store/o/"+key, nil)
	if err != nil {
		return nil, false // absent or unreachable: degrade to re-simulation
	}
	return data, true
}

func (s *HTTPStore) Store(key string, data []byte) error {
	_, err := s.c.do(http.MethodPut, "/store/o/"+key, data)
	return err
}

func (s *HTTPStore) Delete(key string) error {
	_, err := s.c.do(http.MethodDelete, "/store/o/"+key, nil)
	if err != nil && notFound(err) {
		return nil
	}
	return err
}

// Visit streams {campaign}/store/visit: NDJSON wire.VisitLine records,
// one per object, closed by an EOF trailer carrying the server-side
// junk count. Decoding — including the refusal to treat a stream with
// no trailer as complete — lives in wire.ReadVisit, shared with the
// server's own tests and the fuzz corpus.
func (s *HTTPStore) Visit(fn func(key string, data []byte) error) (int, error) {
	data, err := s.c.do(http.MethodGet, "/store/visit", nil)
	if err != nil {
		return 0, err
	}
	return wire.ReadVisit(bytes.NewReader(data), fn)
}

func (s *HTTPStore) Location() string { return s.c.base }

// HTTPCoord is a coord.Backend over the wire: state records live under
// {campaign}/coord/k/{key} on an rtrserved instance.
type HTTPCoord struct {
	c *httpClient

	// Now() must not block on the network (it is called inside tight
	// protocol loops), so the server clock is sampled once and the
	// local-vs-server offset cached; see Now.
	mu       sync.Mutex
	clockSet bool
	offset   time.Duration
}

// NewHTTPCoord binds the locator and options; see NewHTTPStore.
func NewHTTPCoord(loc Locator, o HTTPOptions) (*HTTPCoord, error) {
	c, err := newHTTPClient(loc, o)
	if err != nil {
		return nil, err
	}
	return &HTTPCoord{c: c}, nil
}

func (b *HTTPCoord) Get(key string) ([]byte, error) {
	data, err := b.c.do(http.MethodGet, "/coord/k/"+key, nil)
	if err != nil {
		if notFound(err) {
			return nil, fs.ErrNotExist
		}
		return nil, err
	}
	return data, nil
}

func (b *HTTPCoord) Put(key string, data []byte) error {
	_, err := b.c.do(http.MethodPut, "/coord/k/"+key, data)
	return err
}

// Create maps the server's 409 back to fs.ErrExist — the exclusive
// claim verdict. Note a retried Create can observe its *own* first
// attempt: if the server commits the record but the response is lost,
// the retry gets 409 and this worker loses a claim it actually won.
// That is safe — it is indistinguishable from losing the race, and the
// TTL re-lease path reclaims the shard — but it is why Create retries
// stay on, not why they could come off.
func (b *HTTPCoord) Create(key string, data []byte) error {
	_, err := b.c.do(http.MethodPost, "/coord/k/"+key, data)
	if err != nil && conflict(err) {
		return fs.ErrExist
	}
	return err
}

func (b *HTTPCoord) List(dir string) ([]string, error) {
	data, err := b.c.do(http.MethodGet, "/coord/list?dir="+dir, nil)
	if err != nil {
		if notFound(err) {
			return nil, fs.ErrNotExist
		}
		return nil, err
	}
	var names wire.Names
	if err := json.Unmarshal(data, &names); err != nil {
		return nil, fmt.Errorf("backendurl: list %s: %v", dir, err)
	}
	return names.Names, nil
}

// Now returns the pool clock: local monotonic time corrected by a
// once-sampled offset to the server clock, so every client of one
// server agrees on lease expiry to within one round trip regardless of
// host clock skew. If the sample fails, Now falls back to local time
// and re-samples on the next call.
func (b *HTTPCoord) Now() time.Time {
	b.mu.Lock()
	if !b.clockSet {
		if data, err := b.c.do(http.MethodGet, "/now", nil); err == nil {
			var n wire.Now
			if json.Unmarshal(data, &n) == nil {
				b.offset = time.Until(time.Unix(0, n.UnixNano))
				b.clockSet = true
			}
		}
	}
	off := b.offset
	b.mu.Unlock()
	return time.Now().Add(off)
}

func (b *HTTPCoord) Location() string { return b.c.base }
