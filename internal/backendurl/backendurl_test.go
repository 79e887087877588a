package backendurl

import "testing"

// The error strings below are pinned: they name the offending flag so
// a multi-flag CLI invocation points at the right argument, and both
// CLIs share them through this package.

func TestParseBarePathIsFS(t *testing.T) {
	for raw, want := range map[string]string{
		".rtr-store":    ".rtr-store",
		"/mnt/campaign": "/mnt/campaign",
		"a//b/.":        "a/b", // Clean-normalized: one locator per backend
		"./rel":         "rel",
		"dir/../other":  "other",
	} {
		got, err := Parse("-store", raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		if got.Scheme != SchemeFS || got.Path != want {
			t.Errorf("Parse(%q) = %+v, want fs:%s", raw, got, want)
		}
	}
}

func TestParseSchemeDetection(t *testing.T) {
	// Single-letter prefixes (Windows drive style) and non-letter
	// prefixes are paths, not schemes.
	for _, raw := range []string{"c:tmp", "9x:tmp", "_x:tmp"} {
		got, err := Parse("-store", raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		if got.Scheme != SchemeFS {
			t.Errorf("Parse(%q).Scheme = %q, want fs (not a scheme prefix)", raw, got.Scheme)
		}
	}
	// An all-letter prefix of length ≥ 2 IS a scheme — unknown ones
	// must error rather than silently become directories.
	if _, err := Parse("-store", "weird:but:a/path"); err == nil {
		t.Error("unknown scheme accepted as a path")
	}
}

func TestParseExplicitSchemes(t *testing.T) {
	cases := []struct {
		raw  string
		want Locator
	}{
		{"fs:.rtr-store", Locator{SchemeFS, ".rtr-store"}},
		{"FS:/mnt/x/", Locator{SchemeFS, "/mnt/x"}},
		{"mem:", Locator{SchemeMem, ""}},
		{"MEM:", Locator{SchemeMem, ""}},
	}
	for _, c := range cases {
		got, err := Parse("-coord", c.raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.raw, err)
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.raw, got, c.want)
		}
	}
}

// TestParseErrorsNameTheFlag pins the full message for each failure
// mode: unknown scheme, missing path, and the empty locator. A user
// running `rtrrepro -store fs:db -coord sqlite:db` must be told which
// flag is wrong, and a retired scheme is refused, never read as a path.
func TestParseErrorsNameTheFlag(t *testing.T) {
	cases := []struct {
		flag, raw, want string
	}{
		{"-store", "redis:host", `-store: unknown backend scheme "redis" (registered schemes: fs:, mem:, http:, https:)`},
		{"-coord", "sqlit:db", `-coord: unknown backend scheme "sqlit" (registered schemes: fs:, mem:, http:, https:)`},
		{"-store", "sqlite:campaign.db", `-store: unknown backend scheme "sqlite" (registered schemes: fs:, mem:, http:, https:)`},
		{"-coord", "fs:", `-coord: fs: missing path (want fs:DIR)`},
		{"-store", "mem:stuff", `-store: mem: takes no path (got "stuff", want mem:)`},
		{"-coord", "", `-coord: empty backend locator`},
		{"-store", "http:", `-store: http: missing host (want http://HOST:PORT/c/ID)`},
		{"-coord", "https://", `-coord: https: missing host (want https://HOST:PORT/c/ID)`},
	}
	for _, c := range cases {
		_, err := Parse(c.flag, c.raw)
		if err == nil {
			t.Errorf("Parse(%s, %q): want error", c.flag, c.raw)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("Parse(%s, %q) error = %q, want %q", c.flag, c.raw, err.Error(), c.want)
		}
	}
}

func TestParseHTTP(t *testing.T) {
	l, err := Parse("-store", "http://host:8080/c/abc12")
	if err != nil {
		t.Fatal(err)
	}
	if l.Scheme != SchemeHTTP || l.URL() != "http://host:8080/c/abc12" {
		t.Errorf("http locator %+v, URL %q", l, l.URL())
	}
	l, err = Parse("-coord", "HTTPS://host/c/x")
	if err != nil {
		t.Fatal(err)
	}
	if l.Scheme != SchemeHTTPS || l.URL() != "https://host/c/x" {
		t.Errorf("https locator %+v, URL %q", l, l.URL())
	}
}

func TestLocatorStringRoundTrip(t *testing.T) {
	for _, raw := range []string{"fs:store", "mem:", "http://h:1/c/x", "https://h/c/x"} {
		l, err := Parse("-store", raw)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse("-store", l.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", l.String(), err)
		}
		if back != l {
			t.Errorf("round trip %q → %+v → %+v", raw, l, back)
		}
	}
}
