// Command rtrserved is the sweep control plane: an HTTP server hosting
// result-store + coordinator pairs ("campaigns") that CLI workers and
// merges reach through http(s) locators, with no shared filesystem.
//
//	rtrserved -listen :8080 -state fs:/var/lib/rtr -token s3cret
//
// Submit a campaign (the JSON spec mirrors the CLI flags; zero values
// mean the CLI defaults):
//
//	curl -s -X POST -H "Authorization: Bearer s3cret" \
//	  -d '{"api_version":1,"kind":"suite","only":["fig9a"]}' \
//	  http://host:8080/v1/campaigns
//	→ {"api_version":1,"id":"<ID>","path":"/c/<ID>"}
//
// Point any number of workers at it — the same self-healing pool
// commands as with directory locators, just with campaign URLs:
//
//	rtrrepro -only fig9a -store http://host:8080/c/ID \
//	         -coord http://host:8080/c/ID -coord-shards 8 -auth-token s3cret
//
// And read the report — either the SSE stream, rendered server-side
// row by row as the pool populates the store:
//
//	curl -N -H "Authorization: Bearer s3cret" http://host:8080/v1/campaigns/ID/rows
//
// or a CLI watch merge over the wire, byte-identical to a local run:
//
//	rtrrepro -only fig9a -store http://host:8080/c/ID \
//	         -coord http://host:8080/c/ID -merge-report -watch -auth-token s3cret
//
// GET /v1/campaigns/ID/status reports the pool snapshot with the
// drained/dead verdict; GET /healthz is the unauthenticated liveness
// probe. See ARCHITECTURE.md "Control plane" for the endpoint table
// and EXPERIMENTS.md "Running a sweep service" for a walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

func main() {
	var (
		listen = flag.String("listen", ":8080", "address to serve on (host:port)")
		state  = flag.String("state", "", "campaign state root locator: a directory (or fs:DIR) for per-campaign subdirectories, or mem: (required)")
		token  = flag.String("token", os.Getenv("RTR_SERVE_TOKEN"),
			"bearer token required on every request except /healthz (default: $RTR_SERVE_TOKEN); empty disables auth")
		quiet = flag.Bool("quiet", false, "suppress per-request logging")
	)
	flag.Parse()

	if *state == "" {
		fatal(errors.New("-state is required (fs:DIR or mem:)"))
	}
	logger := log.New(os.Stderr, "rtrserved: ", log.LstdFlags)
	reqLog := logger
	if *quiet {
		reqLog = nil
	}
	srv, err := serve.New(serve.Config{
		State: *state,
		Token: *token,
		Rows:  campaign.Render,
		Check: campaign.CheckSpec,
		Log:   reqLog,
	})
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	auth := "auth disabled"
	if *token != "" {
		auth = "bearer auth on"
	}
	logger.Printf("serving campaigns from %s on %s (%s)", srv.Location(), *listen, auth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case s := <-sig:
		logger.Printf("%v: shutting down", s)
		// Graceful drain bounded by a deadline: in-flight store/coord
		// requests are quick, but an SSE rows stream follows the pool and
		// must be cut loose rather than waited for.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtrserved:", err)
	os.Exit(1)
}
