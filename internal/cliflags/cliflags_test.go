package cliflags

import (
	"flag"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/storetest"
)

// parse builds a CampaignFlags through a real FlagSet, exactly the way
// the CLIs do, so flag names and defaults are covered too.
func parse(t *testing.T, args ...string) (*CampaignFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse(%v): %v", args, err)
	}
	// Keep the environment out of the table: tests pin explicit flags.
	if !given(args, "-store") {
		f.Store = ""
	}
	if !given(args, "-auth-token") {
		f.HTTP.Token = ""
	}
	_, err := f.Resolve()
	return f, err
}

func given(args []string, name string) bool {
	for _, a := range args {
		if a == name || len(a) > len(name) && a[:len(name)+1] == name+"=" {
			return true
		}
	}
	return false
}

// TestResolveModeExclusionErrors pins every mode-exclusion message both
// CLIs share verbatim — EXPERIMENTS.md quotes several of these and
// operators grep for them, so a reworded message is a breaking change.
func TestResolveModeExclusionErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"coord-status without coord",
			[]string{"-coord-status"},
			"-coord-status needs a coordinator directory (-coord DIR)"},
		{"watch without coord",
			[]string{"-watch", "-merge-report", "-store", dir + "/s"},
			"-watch needs both -coord DIR and -merge-report: it renders from the store while the pool populates it"},
		{"watch without merge",
			[]string{"-watch", "-coord", dir + "/c", "-store", dir + "/s"},
			"-watch needs both -coord DIR and -merge-report: it renders from the store while the pool populates it"},
		{"coord with manual shard",
			[]string{"-coord", dir + "/c", "-shard", "0/2", "-store", dir + "/s"},
			"-coord leases shards by itself — drop -shard"},
		{"coord without store",
			[]string{"-coord", dir + "/c"},
			"-coord needs a result store (-store DIR or $RTR_STORE)"},
		{"shard with merge",
			[]string{"-shard", "0/2", "-merge-report", "-store", dir + "/s"},
			"-shard and -merge-report are mutually exclusive (populate first, merge after)"},
		{"shard without store",
			[]string{"-shard", "0/2"},
			"-shard needs a result store (-store DIR or $RTR_STORE)"},
		{"merge without store",
			[]string{"-merge-report"},
			"-merge-report needs a result store (-store DIR or $RTR_STORE)"},
		{"unknown store scheme",
			[]string{"-store", "ftp:thing"},
			`-store: unknown backend scheme "ftp" (registered schemes: fs:, mem:, http:, https:)`},
		{"unknown coord scheme",
			[]string{"-coord", "ftp:thing", "-store", dir + "/s"},
			`-coord: unknown backend scheme "ftp" (registered schemes: fs:, mem:, http:, https:)`},
		{"http store missing host",
			[]string{"-store", "http:"},
			"-store: http: missing host (want http://HOST:PORT/c/ID)"},
		{"bad shard syntax",
			[]string{"-shard", "2/2", "-store", dir + "/s"},
			`-shard "2/2": index 2 outside 0..1 (want 0 ≤ i < N)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(t, c.args...)
			if err == nil {
				t.Fatalf("Resolve(%v) succeeded, want %q", c.args, c.want)
			}
			if err.Error() != c.want {
				t.Fatalf("Resolve(%v) error:\n got %q\nwant %q", c.args, err, c.want)
			}
		})
	}
}

// TestResolveOpensEveryScheme: each registered locator scheme resolves
// into an opened backend for both -store and -coord (http(s) clients
// are lazy — no server needs to listen for Resolve to succeed).
func TestResolveOpensEveryScheme(t *testing.T) {
	dir := t.TempDir()
	stores := map[string]string{
		"bare path": dir + "/bare",
		"fs":        "fs:" + dir + "/fs",
		"mem":       "mem:",
		"http":      "http://127.0.0.1:1/c/x",
		"https":     "https://127.0.0.1:1/c/x",
	}
	for name, loc := range stores {
		t.Run("store/"+name, func(t *testing.T) {
			f, err := parse(t, "-store", loc)
			if err != nil {
				t.Fatalf("Resolve(-store %s): %v", loc, err)
			}
			s, err := f.Resolve()
			if err != nil || s.Store == nil {
				t.Fatalf("re-Resolve: store nil or %v", err)
			}
		})
		t.Run("coord/"+name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := Register(fs)
			if err := fs.Parse([]string{"-coord", loc, "-store", "mem:", "-coord-shards", "2"}); err != nil {
				t.Fatal(err)
			}
			f.HTTP.Token = ""
			s, err := f.Resolve()
			if err != nil {
				t.Fatalf("Resolve(-coord %s): %v", loc, err)
			}
			if s.Coord == nil || s.Coord.Backend == nil {
				t.Fatal("coord backend not opened")
			}
			if s.Coord.Shards != 2 || s.Coord.Workers != 1 {
				t.Fatalf("coord settings %d shards / %d workers, want 2 / 1", s.Coord.Shards, s.Coord.Workers)
			}
		})
	}
}

// TestResolveStoreSwitches: -no-store wins over -store, the worker
// count threads into the Setup, and -auth-token reaches the http
// client: a token-protected server takes an entry with the token and
// refuses it without.
func TestResolveStoreSwitches(t *testing.T) {
	f, err := parse(t, "-store", "mem:", "-no-store")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := f.Resolve(); s.Store != nil {
		t.Fatal("-no-store did not disable the store")
	}

	base, opts := storetest.HTTPCampaign(t)
	for _, token := range []string{opts.Token, ""} {
		args := []string{"-store", base, "-parallel", "3"}
		if token != "" {
			args = append(args, "-auth-token", token)
		}
		f2, err := parse(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := f2.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if s.Parallel != 3 {
			t.Fatalf("Setup parallel=%d, want 3", s.Parallel)
		}
		err = s.Store.Put(storetest.Key(1), &resultstore.Entry{Scenario: "auth", Run: &resultstore.Run{Events: 1}})
		if token != "" && err != nil {
			t.Fatalf("store with -auth-token: %v", err)
		}
		if token == "" && err == nil {
			t.Fatal("a token-protected server stored an entry without -auth-token")
		}
	}
}
