package serve_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

const testToken = "serve-test-token"

// newServer starts a control plane over a mem state root and returns
// the live test server plus the serve.Server for direct calls.
func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.State == "" {
		cfg.State = "mem:"
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// request performs one authenticated call and returns the status code
// and body.
func request(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+testToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// errorMessage decodes a wire.Error body.
func errorMessage(t *testing.T, data []byte) string {
	t.Helper()
	var e wire.Error
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("not a wire error body: %v (%q)", err, data)
	}
	return e.Message
}

func TestCreateAndStatus(t *testing.T) {
	_, ts := newServer(t, serve.Config{Token: testToken})

	code, body := request(t, "POST", ts.URL+"/v1/campaigns", `{"api_version":1,"kind":"suite"}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %s", code, body)
	}
	var created wire.Created
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.V != wire.APIVersion || created.ID == "" || created.Path != "/c/"+created.ID {
		t.Fatalf("created = %+v", created)
	}

	// A fresh campaign's pool is not formed yet: status is all zeroes.
	code, body = request(t, "GET", ts.URL+"/v1/campaigns/"+created.ID+"/status", "")
	if code != http.StatusOK {
		t.Fatalf("status = %d %s", code, body)
	}
	var st wire.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Initialised || st.Drained || st.Done != 0 || st.ID != created.ID {
		t.Fatalf("pre-pool status = %+v", st)
	}
}

func TestCreateRejections(t *testing.T) {
	_, ts := newServer(t, serve.Config{
		Token: testToken,
		Check: func(s wire.Spec) error {
			if len(s.Only) > 0 {
				return errors.New("no experiment filters here")
			}
			return nil
		},
	})
	cases := []struct {
		name, body, want string
	}{
		{"version", `{"api_version":9,"kind":"suite"}`,
			"wire: campaign spec has api_version 9, this build speaks v1"},
		{"kind", `{"api_version":1,"kind":"party"}`,
			`wire: campaign spec kind "party" (want suite or sweep)`},
		{"unknown field", `{"api_version":1,"kind":"suite","sneaky":true}`,
			"wire: bad campaign spec: "},
		{"malformed", `{"api_`, "wire: bad campaign spec: "},
		{"check hook", `{"api_version":1,"kind":"suite","only":["fig9a"]}`,
			"no experiment filters here"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := request(t, "POST", ts.URL+"/v1/campaigns", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("code = %d %s", code, body)
			}
			if msg := errorMessage(t, body); !strings.Contains(msg, tc.want) {
				t.Errorf("error %q does not contain %q", msg, tc.want)
			}
		})
	}
}

func TestAuth(t *testing.T) {
	srv, ts := newServer(t, serve.Config{Token: testToken})
	c, err := srv.Create(wire.Spec{V: wire.APIVersion, Kind: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{
		ts.URL + "/v1/campaigns/" + c.ID() + "/status",
		ts.URL + "/c/" + c.ID() + "/now",
		ts.URL + "/c/" + c.ID() + "/store/visit",
		ts.URL + "/c/" + c.ID() + "/coord/k/coordinator.json",
	}
	for _, u := range urls {
		for _, hdr := range []string{"", "Bearer wrong"} {
			req, _ := http.NewRequest("GET", u, nil)
			if hdr != "" {
				req.Header.Set("Authorization", hdr)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("GET %s auth %q = %d, want 401", u, hdr, resp.StatusCode)
			}
			if msg := errorMessage(t, body); msg != "missing or wrong bearer token" {
				t.Errorf("auth error %q", msg)
			}
		}
	}
	// The liveness probe stays open.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d without auth, want 200", resp.StatusCode)
	}
}

func TestUnknownCampaign(t *testing.T) {
	_, ts := newServer(t, serve.Config{Token: testToken})
	for _, u := range []string{
		"/v1/campaigns/deadbeef/status",
		"/c/deadbeef/now",
		"/c/deadbeef/store/o/" + strings.Repeat("a", 64),
		"/c/deadbeef/coord/k/coordinator.json",
		"/c/ZZ/now", // invalid id shape is the same 404, not a 500
	} {
		code, body := request(t, "GET", ts.URL+u, "")
		if code != http.StatusNotFound {
			t.Errorf("GET %s = %d %s, want 404", u, code, body)
		}
		if msg := errorMessage(t, body); !strings.Contains(msg, "no campaign") {
			t.Errorf("GET %s error %q", u, msg)
		}
	}
}

func TestKeyValidation(t *testing.T) {
	srv, ts := newServer(t, serve.Config{Token: testToken})
	c, err := srv.Create(wire.Spec{V: wire.APIVersion, Kind: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/c/" + c.ID()

	// Store keys must be 64 hex digits — the fs backend fans out on
	// key prefixes, so a short key must die here, not in a backend.
	for _, bad := range []string{"ab", strings.Repeat("a", 63) + "G", strings.Repeat("a", 65)} {
		code, body := request(t, "PUT", base+"/store/o/"+bad, "{}")
		if code != http.StatusBadRequest {
			t.Errorf("PUT store key %q = %d %s, want 400", bad, code, body)
		}
	}
	// Coordinator keys are conservative slash paths. (Traversal via
	// ".." segments never reaches the handler: the mux path-cleans it
	// away first.)
	for _, bad := range []string{"a%20b", "a%00b", strings.Repeat("x/", 200) + "y"} {
		code, body := request(t, "PUT", base+"/coord/k/"+bad, "{}")
		if code != http.StatusBadRequest {
			t.Errorf("PUT coord key %q = %d %s, want 400", bad, code, body)
		}
	}
	code, body := request(t, "GET", base+"/coord/list?dir=a%20b", "")
	if code != http.StatusBadRequest {
		t.Errorf("list with malformed prefix = %d %s, want 400", code, body)
	}
}

func TestCoordVerbs(t *testing.T) {
	srv, ts := newServer(t, serve.Config{Token: testToken})
	c, err := srv.Create(wire.Spec{V: wire.APIVersion, Kind: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/c/" + c.ID() + "/coord/k/shard-0000/gen-0001.claim"

	if code, _ := request(t, "GET", base, ""); code != http.StatusNotFound {
		t.Fatalf("get absent record = %d, want 404", code)
	}
	if code, body := request(t, "POST", base, `{"owner":"w1"}`); code != http.StatusCreated {
		t.Fatalf("create = %d %s", code, body)
	}
	// Exclusive create: the second claimant loses with 409.
	code, body := request(t, "POST", base, `{"owner":"w2"}`)
	if code != http.StatusConflict {
		t.Fatalf("second create = %d %s, want 409", code, body)
	}
	if msg := errorMessage(t, body); !strings.Contains(msg, "already exists") {
		t.Errorf("conflict error %q", msg)
	}
	if code, data := request(t, "GET", base, ""); code != http.StatusOK || string(data) != `{"owner":"w1"}` {
		t.Fatalf("get after racing creates = %d %q, want the first writer's record", code, data)
	}
	if code, _ := request(t, "PUT", base, `{"owner":"w1","beat":2}`); code != http.StatusNoContent {
		t.Fatalf("put overwrite failed")
	}
	code, data := request(t, "GET", ts.URL+"/c/"+c.ID()+"/coord/list?dir=shard-0000", "")
	if code != http.StatusOK {
		t.Fatalf("list = %d %s", code, data)
	}
	var names wire.Names
	if err := json.Unmarshal(data, &names); err != nil {
		t.Fatal(err)
	}
	if len(names.Names) != 1 || names.Names[0] != "gen-0001.claim" {
		t.Fatalf("list names = %v", names.Names)
	}
}

func TestRowsWithoutRenderer(t *testing.T) {
	srv, ts := newServer(t, serve.Config{Token: testToken}) // no Rows hook
	c, err := srv.Create(wire.Spec{V: wire.APIVersion, Kind: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	code, body := request(t, "GET", ts.URL+"/v1/campaigns/"+c.ID()+"/rows", "")
	if code != http.StatusNotImplemented {
		t.Fatalf("rows without a renderer = %d %s, want 501", code, body)
	}
}

// TestRestartReservesCampaigns pins that campaign state outlives the
// server process on the persistent fs root, under both spellings (bare
// path and fs:DIR): a second serve.New over the same root re-serves the
// campaign, spec and stored objects included.
func TestRestartReservesCampaigns(t *testing.T) {
	for _, state := range []string{"", "fs:"} {
		name := "fs"
		if state != "" {
			name = "fs-scheme"
		}
		t.Run(name, func(t *testing.T) {
			root := state + filepath.Join(t.TempDir(), "campaigns")
			srv, err := serve.New(serve.Config{State: root, Token: testToken})
			if err != nil {
				t.Fatal(err)
			}
			c, err := srv.Create(wire.Spec{V: wire.APIVersion, Kind: "sweep", Workload: "fig2"})
			if err != nil {
				t.Fatal(err)
			}
			key := strings.Repeat("5", 64)
			if err := c.Store().Backend().Store(key, []byte("payload")); err != nil {
				t.Fatal(err)
			}

			srv2, err := serve.New(serve.Config{State: root, Token: testToken})
			if err != nil {
				t.Fatal(err)
			}
			c2, err := srv2.Campaign(c.ID())
			if err != nil {
				t.Fatalf("campaign lost across restart: %v", err)
			}
			if c2.Spec().Workload != "fig2" {
				t.Errorf("respawned spec = %+v", c2.Spec())
			}
			if data, ok := c2.Store().Backend().Load(key); !ok || string(data) != "payload" {
				t.Errorf("stored object lost across restart: %q, %v", data, ok)
			}
		})
	}
}

func TestServerStateCannotChain(t *testing.T) {
	_, err := serve.New(serve.Config{State: "http://other:8080/c/abc"})
	if err == nil || !strings.Contains(err.Error(), "cannot chain to another server") {
		t.Fatalf("chained server state accepted: %v", err)
	}
}

// TestServerStateRefusesRetiredScheme: a sqlite: state root is an
// unknown scheme, refused at parse time and never created as a path.
func TestServerStateRefusesRetiredScheme(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaigns")
	_, err := serve.New(serve.Config{State: "sqlite:" + dir})
	if err == nil || !strings.Contains(err.Error(), `-state: unknown backend scheme "sqlite"`) {
		t.Fatalf("sqlite: state root accepted: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused state root was created on disk: %v", err)
	}
}
