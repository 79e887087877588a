package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/serve/wire"
	"repro/internal/simtime"
)

// The lines every warm, merged or resumed render must print on stderr:
// each scenario served from the store, none re-simulated or written.
const allHits = `result store: [1-9][0-9]* hits, 0 misses, 0 entries written`

const e2eToken = "e2e-token"

// TestEndToEnd drives the real rtrrepro and rtrserved binaries through
// the stories the reports rest on. Each must print a report
// byte-identical to a plain run with no store:
//   - determinism: the full suite cold, then warm from one fs store;
//   - shards: two shard populates, then a merge, per store backend;
//   - self-healing: a worker SIGKILLed while it holds a lease, two
//     survivors re-leasing its shard while a watch merge renders, and
//     on fs a watch merge SIGKILLed mid-render and resumed.
//
// Run it alone with `go test -v -run TestEndToEnd ./cmd/rtrrepro/`; the
// -v log says on which try each kill landed.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	e := &e2e{bin: t.TempDir()}
	build := exec.Command("go", "build", "-o", e.bin, ".", "../rtrserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	e.startServer(t)

	suite := []string{"-apps", "120", "-rus", "4-6"}
	plain, _ := e.repro(t, suite...)

	t.Run("determinism", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "store")
		cold, _ := e.repro(t, with(suite, "-store", dir)...)
		warm, warmLog := e.repro(t, with(suite, "-store", dir)...)
		sameReport(t, "warm run", warm, cold)
		contains(t, "warm run stderr", warmLog, allHits)
		gc, _ := e.repro(t, "-store", dir, "-store-gc")
		contains(t, "-store-gc", gc, `removed 0 stale entries, kept [1-9]`)
	})

	for _, b := range []struct {
		name    string
		store   func(t *testing.T) string
		sharded bool // mem: dies with its process, so it runs single-process
	}{
		{"fs", func(t *testing.T) string { return filepath.Join(t.TempDir(), "store") }, true},
		{"mem", func(*testing.T) string { return "mem:" }, false},
		{"http", func(t *testing.T) string { base, _ := e.campaign(t, `{"api_version":1,"kind":"suite"}`); return base }, true},
	} {
		t.Run("shards/"+b.name, func(t *testing.T) {
			store := with(suite, "-store", b.store(t))
			if !b.sharded {
				report, _ := e.repro(t, store...)
				sameReport(t, "mem store run", report, plain)
				return
			}
			for i := range 2 {
				out, log := e.repro(t, with(store, "-shard", fmt.Sprintf("%d/2", i))...)
				if out != "" {
					t.Errorf("shard %d/2 printed a report:\n%s", i, out)
				}
				contains(t, "shard stderr", log, fmt.Sprintf(`shard %d/2: ran [1-9][0-9]* of [1-9][0-9]* grid scenarios`, i))
			}
			merged, log := e.repro(t, with(store, "-merge-report")...)
			sameReport(t, "merged report", merged, plain)
			contains(t, "merge stderr", log, allHits)
		})
	}

	const only = "fig9a,fig9b,fig9c,variance"
	healing := with(suite, "-only", only)
	healingPlain, _ := e.repro(t, healing...)
	for _, b := range []struct {
		name string
		pool func(t *testing.T) pool
		// midShard reports whether a shard is claimed and not done.
		midShard func(t *testing.T, p pool) bool
	}{
		{"fs", func(t *testing.T) pool {
			dir := t.TempDir()
			return pool{store: filepath.Join(dir, "store"), coord: filepath.Join(dir, "coord")}
		}, func(t *testing.T, p pool) bool {
			claims, _ := filepath.Glob(filepath.Join(p.coord, "shard-*", "gen-*.claim"))
			dones, _ := filepath.Glob(filepath.Join(p.coord, "shard-*", "done.json"))
			return len(claims) > len(dones)
		}},
		{"http", func(t *testing.T) pool {
			base, id := e.campaign(t, `{"api_version":1,"kind":"suite","only":["fig9a","fig9b","fig9c","variance"],"apps":120,"rus":[4,5,6]}`)
			return pool{store: base, coord: base, id: id}
		}, func(t *testing.T, p pool) bool {
			return strings.Contains(e.get(t, "/v1/campaigns/"+p.id+"/status"), `"state":"leased"`)
		}},
	} {
		t.Run("self-healing/"+b.name, func(t *testing.T) {
			var p pool
			var workerArgs, mergeArgs []string
			for try := 1; ; try++ {
				p = b.pool(t)
				workerArgs = with(healing, "-store", p.store, "-coord", p.coord,
					"-coord-shards", "6", "-lease-ttl", "1s", "-heartbeat", "100ms")
				mergeArgs = with(healing, "-store", p.store, "-coord", p.coord, "-merge-report", "-watch")
				var victimLog strings.Builder
				victim := e.start(t, io.Discard, &victimLog, workerArgs...)
				victim.killWhen(func() bool { return b.midShard(t, p) }, time.Millisecond)
				if b.midShard(t, p) {
					t.Logf("worker kill landed mid-shard on try %d", try)
					break
				}
				if try == 3 {
					t.Fatalf("the victim finished its shards before the kill landed, 3 tries out of 3:\n%s", victimLog.String())
				}
				t.Logf("try %d: the victim finished before the kill landed; retrying on a fresh pool", try)
			}

			var watchOut, watchLog, bLog, cLog strings.Builder
			merge := e.start(t, &watchOut, &watchLog, mergeArgs...)
			survivors := []*proc{e.start(t, io.Discard, &bLog, workerArgs...), e.start(t, io.Discard, &cLog, workerArgs...)}
			for _, w := range append(survivors, merge) {
				if err := w.wait(); err != nil {
					t.Fatalf("pool run: %v\nsurvivors:\n%s%s\nwatch merge:\n%s", err, bLog.String(), cLog.String(), watchLog.String())
				}
			}

			status, _ := e.repro(t, "-coord", p.coord, "-coord-status")
			contains(t, "-coord-status", status, `6 shards, 6 done, 0 leased, 0 pending`)
			contains(t, "-coord-status", status, `shard [0-9]+: done .*attempts ([2-9]|[1-9][0-9]+)`)
			contains(t, "survivors' stderr", bLog.String()+cLog.String(), `\(attempt ([2-9]|[1-9][0-9]+)\)`)
			sameReport(t, "concurrent watch merge", watchOut.String(), healingPlain)
			contains(t, "watch merge stderr", watchLog.String(), `merge watch: pool drained: 6 shards done`)
			contains(t, "watch merge stderr", watchLog.String(), allHits)
			merged, log := e.repro(t, with(healing, "-store", p.store, "-coord", p.coord, "-merge-report")...)
			sameReport(t, "post-drain merge", merged, healingPlain)
			contains(t, "post-drain merge stderr", log, allHits)

			if p.id != "" {
				contains(t, "status endpoint", e.get(t, "/v1/campaigns/"+p.id+"/status"), `"drained":true`)
				sameReport(t, "SSE rows", e.rows(t, p.id), healingPlain)
				return
			}
			e.killAndResumeMerge(t, p, mergeArgs, healingPlain, only)
		})
	}
}

// killAndResumeMerge SIGKILLs a watch merge over the drained fs pool p
// as soon as it has checkpointed, then checks that a second watch merge
// resumes from its checkpoint: the dead merge's output up to the resume
// offset plus the resumed output is the plain report. A third merge
// prints the report in full.
func (e *e2e) killAndResumeMerge(t *testing.T, p pool, mergeArgs []string, plain, only string) {
	selected, err := selectExperiments(only)
	if err != nil {
		t.Fatal(err)
	}
	fp := coordFingerprint(experiments.Options{Seed: 2011, Apps: 120, RUs: []int{4, 5, 6}, Latency: simtime.FromMs(4)}, selected)
	cks := coord.NewCheckpointStore(coord.NewFS(p.coord))
	partialPath := filepath.Join(t.TempDir(), "partial.txt")
	var partial string
	for try := 1; try <= 3; try++ {
		campaign.SaveMergeOffset(cks, fp, 0)
		out, err := os.Create(partialPath)
		if err != nil {
			t.Fatal(err)
		}
		m := e.start(t, out, io.Discard, mergeArgs...)
		m.killWhen(func() bool { return campaign.LoadMergeOffset(cks, fp) > 0 }, time.Millisecond)
		out.Close()
		got, _ := os.ReadFile(partialPath)
		off := campaign.LoadMergeOffset(cks, fp)
		if len(got) > 0 && len(got) < len(plain) && off > 0 {
			t.Logf("merge kill landed mid-render on try %d, at byte %d of %d", try, len(got), len(plain))
			partial = string(got)
			break
		}
		t.Logf("try %d: the merge was killed at byte %d of %d, checkpoint offset %d", try, len(got), len(plain), off)
	}
	if partial == "" {
		t.Logf("the merge outran the kill 3 times: seeding its checkpoint at the report's midpoint")
		partial = plain[:len(plain)/2]
		campaign.SaveMergeOffset(cks, fp, int64(len(partial)))
	}

	resumed, log := e.repro(t, mergeArgs...)
	m := regexp.MustCompile(`(?m)^merge checkpoint: resuming at byte offset ([0-9]+)$`).FindStringSubmatch(log)
	if m == nil {
		t.Fatalf("resumed merge stderr lacks the resume line:\n%s", log)
	}
	// The checkpoint may lag the dead merge's output, never lead it.
	off, _ := strconv.Atoi(m[1])
	if off > len(partial) {
		t.Fatalf("resume offset %d is past the %d bytes the dead merge printed", off, len(partial))
	}
	sameReport(t, "partial + resumed merge", partial[:off]+resumed, plain)
	contains(t, "resumed merge stderr", log, allHits)
	full, _ := e.repro(t, mergeArgs...)
	sameReport(t, "merge after a completed resume", full, plain)
}

// e2e holds the built binaries' directory and the rtrserved base URL.
type e2e struct{ bin, server string }

// pool names one coordinator pool's -store and -coord locators; id is
// its rtrserved campaign, "" for an fs pool.
type pool struct{ store, coord, id string }

// proc is a started binary.
type proc struct {
	cmd    *exec.Cmd
	exited chan struct{}
	err    error
}

func (e *e2e) command(name string, stdout, stderr io.Writer, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Env = append(os.Environ(), "RTR_STORE=", "RTR_TOKEN="+e2eToken)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	return cmd
}

// repro runs rtrrepro to completion and returns its stdout and stderr.
func (e *e2e) repro(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	if err := e.command("rtrrepro", &out, &errOut, args...).Run(); err != nil {
		t.Fatalf("rtrrepro %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
}

// start runs rtrrepro in the background; the test's cleanup kills it.
func (e *e2e) start(t *testing.T, stdout, stderr io.Writer, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: e.command("rtrrepro", stdout, stderr, args...), exited: make(chan struct{})}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.exited) }()
	t.Cleanup(func() { p.cmd.Process.Kill(); <-p.exited })
	return p
}

func (p *proc) wait() error { <-p.exited; return p.err }

// killWhen polls cond every interval and SIGKILLs the process once it
// holds, or stops polling if the process exits first.
func (p *proc) killWhen(cond func() bool, interval time.Duration) {
	for !cond() {
		select {
		case <-p.exited:
			return
		case <-time.After(interval):
		}
	}
	p.cmd.Process.Kill()
	<-p.exited
}

// startServer runs rtrserved with an fs state root and bearer auth on
// a free loopback port, and waits for its health check.
func (e *e2e) startServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var log strings.Builder
	srv := e.command("rtrserved", io.Discard, &log,
		"-listen", addr, "-state", "fs:"+t.TempDir(), "-token", e2eToken, "-quiet")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Process.Kill(); srv.Wait() })
	e.server = "http://" + addr
	for range 200 {
		if resp, err := http.Get(e.server + "/healthz"); err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("rtrserved never became healthy:\n%s", log.String())
}

// do sends one authorized request to rtrserved.
func (e *e2e) do(t *testing.T, method, path, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, e.server+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+e2eToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func (e *e2e) get(t *testing.T, path string) string {
	t.Helper()
	resp := e.do(t, "GET", path, "")
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// campaign submits spec and returns the campaign's locator and id.
func (e *e2e) campaign(t *testing.T, spec string) (base, id string) {
	t.Helper()
	resp := e.do(t, "POST", "/v1/campaigns", spec)
	defer resp.Body.Close()
	var created wire.Created
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil || created.ID == "" {
		t.Fatalf("create campaign: %s, %v", resp.Status, err)
	}
	return e.server + created.Path, created.ID
}

// rows reassembles the report the server streams as SSE row events.
func (e *e2e) rows(t *testing.T, id string) string {
	t.Helper()
	resp := e.do(t, "GET", "/v1/campaigns/"+id+"/rows", "")
	defer resp.Body.Close()
	var text strings.Builder
	err := wire.ReadEvents(resp.Body, func(event string, data []byte) error {
		if event != "row" {
			return nil
		}
		var row wire.RowEvent
		err := json.Unmarshal(data, &row)
		text.WriteString(row.Text)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return text.String()
}

// with returns args followed by more, never sharing args' backing array.
func with(args []string, more ...string) []string {
	return append(args[:len(args):len(args)], more...)
}

// sameReport fails t unless got is byte-identical to want.
func sameReport(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i == len(g) || i == len(w) || g[i] != w[i] {
			t.Errorf("%s differs from the plain report (%d vs %d bytes) at line %d:\n got %q\nwant %q",
				what, len(got), len(want), i+1, line(g, i), line(w, i))
			return
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of report>"
}

// contains fails t unless text has a match of the regular expression re.
func contains(t *testing.T, what, text, re string) {
	t.Helper()
	if !regexp.MustCompile(re).MatchString(text) {
		t.Errorf("%s lacks %q:\n%s", what, re, text)
	}
}
