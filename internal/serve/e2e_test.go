package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/backendurl"
	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/simtime"
	"repro/internal/sweep"
)

// TestServiceEndToEnd is the in-process version of cmd/rtrrepro's
// TestEndToEnd/self-healing/http: a campaign submitted to a live control
// plane, populated by two workers running entirely over http backends,
// whose SSE row stream — collected while the workers run — must be
// byte-identical to the plain local report. This is the property that
// licenses `rtrrepro -store http://… -coord http://…` as a drop-in for
// directory locators.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweeps in -short mode")
	}

	// The reference report: a plain single-process run, no store.
	exps, err := campaign.SelectExperiments([]string{"fig9b"})
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.Options{
		Seed: 2011, Apps: 40, RUs: []int{4, 5}, Latency: simtime.FromMs(4),
	}
	var plain bytes.Buffer
	if err := campaign.RenderSuite(opt, exps, &plain); err != nil {
		t.Fatal(err)
	}

	_, ts := newServer(t, serve.Config{
		Token: testToken,
		Rows:  campaign.Render,
		Check: campaign.CheckSpec,
	})

	// Submit the same campaign over the API.
	code, body := request(t, "POST", ts.URL+"/v1/campaigns",
		`{"api_version":1,"kind":"suite","only":["fig9b"],"seed":2011,"apps":40,"rus":[4,5],"latency_ms":4}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %s", code, body)
	}
	var created wire.Created
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + created.Path
	httpOpts := backendurl.HTTPOptions{Token: testToken}

	// Start the SSE watch first — like a CLI -watch merge, the renderer
	// must wait for the pool the workers have not formed yet.
	type sseResult struct {
		text string
		done bool
		err  error
	}
	sseCh := make(chan sseResult, 1)
	go func() {
		req, err := http.NewRequest("GET", ts.URL+"/v1/campaigns/"+created.ID+"/rows", nil)
		if err != nil {
			sseCh <- sseResult{err: err}
			return
		}
		req.Header.Set("Authorization", "Bearer "+testToken)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			sseCh <- sseResult{err: err}
			return
		}
		defer resp.Body.Close()
		var res sseResult
		var wantSeq int
		res.err = wire.ReadEvents(resp.Body, func(event string, data []byte) error {
			switch event {
			case "row":
				var row wire.RowEvent
				if err := json.Unmarshal(data, &row); err != nil {
					return err
				}
				if row.Seq != wantSeq {
					return fmt.Errorf("row seq %d, want %d", row.Seq, wantSeq)
				}
				wantSeq++
				res.text += row.Text
			case "done":
				res.done = true
			case "error":
				var e wire.Error
				if err := json.Unmarshal(data, &e); err != nil {
					return err
				}
				return fmt.Errorf("server rows error: %s", e.Message)
			}
			return nil
		})
		sseCh <- res
	}()

	// Two workers, each on its own wire handles — two hosts with no
	// shared filesystem.
	const shards = 4
	var wg sync.WaitGroup
	workerErrs := make(chan error, 2)
	for w := range 2 {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			loc, err := backendurl.Parse("-store", base)
			if err != nil {
				workerErrs <- err
				return
			}
			sb, err := backendurl.NewHTTPStore(loc, httpOpts)
			if err != nil {
				workerErrs <- err
				return
			}
			cb, err := backendurl.NewHTTPCoord(loc, httpOpts)
			if err != nil {
				workerErrs <- err
				return
			}
			// The heartbeat is also the idle claim loop's poll interval:
			// left at its default (TTL/4 = 15 s), the worker that runs out
			// of shards first waits that long to see the pool drain.
			c, err := coord.Open(coord.Config{
				Backend: cb, Shards: shards,
				Owner:     fmt.Sprintf("worker-%d", w),
				LeaseTTL:  time.Minute,
				Heartbeat: 50 * time.Millisecond,
			})
			if err != nil {
				workerErrs <- err
				return
			}
			popOpt := opt
			popOpt.Store = resultstore.FromBackend(sb)
			if _, err := c.RunWorkers(1, func(r coord.ShardRun) error {
				_, err := experiments.Populate(popOpt, exps, sweep.Shard{Index: r.Shard, Count: r.Count})
				return err
			}); err != nil {
				workerErrs <- err
			}
		}(w)
	}
	wg.Wait()
	close(workerErrs)
	for err := range workerErrs {
		t.Fatal(err)
	}

	select {
	case res := <-sseCh:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if !res.done {
			t.Fatal("SSE stream ended without the done event")
		}
		if res.text != plain.String() {
			t.Errorf("SSE report diverged from the plain local run:\n--- plain ---\n%s\n--- SSE ---\n%s", plain.String(), res.text)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("SSE stream did not finish")
	}

	// The status endpoint agrees the pool drained.
	code, body = request(t, "GET", ts.URL+"/v1/campaigns/"+created.ID+"/status", "")
	if code != http.StatusOK {
		t.Fatalf("status = %d %s", code, body)
	}
	var st wire.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Initialised || !st.Drained || st.Done != shards || st.Dead != "" {
		t.Fatalf("post-drain status = %+v", st)
	}
}
