package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/mobility"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestStoreToTokenProtectedServer: rtrmob writes its tables to an
// rtrserved campaign that requires a bearer token when -auth-token
// carries it, and reports the server's 401 when it does not.
func TestStoreToTokenProtectedServer(t *testing.T) {
	const token = "rtrmob-test-token"
	srv, err := serve.New(serve.Config{State: "mem:", Token: token})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := srv.Create(wire.Spec{V: wire.APIVersion, Kind: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	locator := ts.URL + "/c/" + c.ID()
	stored := func() bool {
		_, ok := artifact.NewTableStore(c.Store()).LoadTable(workload.JPEG(), 4, simtime.FromMs(4))
		return ok
	}

	for _, tc := range []struct {
		token string
		want  string
	}{
		{"", "1 writes FAILED (first: server returned 401: missing or wrong bearer token)"},
		{token, "0 hits, 1 misses, 1 written"},
	} {
		// The process-wide table cache would serve the second run without
		// a write.
		mobility.FlushCache()
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-graph", "jpeg", "-store", locator, "-auth-token=" + tc.token}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("token %q: stderr %q does not report %q", tc.token, stderr.String(), tc.want)
		}
		if got := stored(); got != (tc.token != "") {
			t.Errorf("token %q: table stored = %v", tc.token, got)
		}
	}
}
