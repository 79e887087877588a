// Package backendurl parses the -store/-coord backend locator syntax
// shared by cmd/rtrrepro and cmd/rtrsim.
//
// A locator is either a bare filesystem path (the historical form,
// still the default) or a scheme-prefixed form:
//
//	.rtr-store                   → fs backend rooted at .rtr-store
//	fs:/mnt/campaign             → fs backend, explicit scheme
//	mem:                         → in-process memory backend (ephemeral)
//	http://host:8080/c/ID        → campaign hosted by rtrserved
//	https://host/c/ID            → same, over TLS
//
// Both CLIs parse through this one package so the scheme set, the
// error messages, and the path normalization cannot drift between
// -store and -coord.
package backendurl

import (
	"fmt"
	"path/filepath"
	"strings"
)

// Recognized schemes.
const (
	SchemeFS    = "fs"
	SchemeMem   = "mem"
	SchemeHTTP  = "http"
	SchemeHTTPS = "https"
)

// Schemes lists every registered scheme, in the order error messages
// enumerate them. New backends register here so "unknown scheme"
// diagnostics can never go stale.
func Schemes() []string {
	return []string{SchemeFS, SchemeMem, SchemeHTTP, SchemeHTTPS}
}

// schemeList renders Schemes for an error message: "fs:, mem:, ...".
func schemeList() string {
	s := Schemes()
	return strings.Join(s, ":, ") + ":"
}

// Locator is a parsed backend reference: which backend family, and the
// path it is rooted at (empty for mem).
type Locator struct {
	Scheme string
	Path   string
}

// String renders the canonical form, suitable for reparsing.
func (l Locator) String() string {
	return l.Scheme + ":" + l.Path
}

// splitScheme splits raw at its first colon when the prefix before it
// is a scheme: two or more ASCII letters. It returns the lower-cased
// scheme, the remainder after the colon, and ok=true; otherwise ok is
// false and raw is a bare path. This keeps Windows-style "C:\x" and
// relative paths with colons elsewhere out of the scheme namespace.
func splitScheme(raw string) (scheme, rest string, ok bool) {
	i := strings.IndexByte(raw, ':')
	if i < 2 {
		return "", "", false
	}
	for _, r := range raw[:i] {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') {
			return "", "", false
		}
	}
	return strings.ToLower(raw[:i]), raw[i+1:], true
}

// Parse interprets raw as a backend locator for the named CLI flag
// (e.g. "-store"). A bare path parses as the fs scheme. Paths are
// cleaned via filepath.Clean so "a//b/." and "a/b" name one backend;
// relative paths stay relative (they resolve against the working
// directory of each process, exactly as the bare-path form always
// has). Empty raw is an error: callers decide upstream whether an
// unset flag means "disabled".
func Parse(flag, raw string) (Locator, error) {
	if raw == "" {
		return Locator{}, fmt.Errorf("%s: empty backend locator", flag)
	}
	scheme, rest, ok := splitScheme(raw)
	if !ok {
		return Locator{Scheme: SchemeFS, Path: filepath.Clean(raw)}, nil
	}
	switch scheme {
	case SchemeFS:
		if rest == "" {
			return Locator{}, fmt.Errorf("%s: fs: missing path (want %s:DIR)", flag, SchemeFS)
		}
		return Locator{Scheme: SchemeFS, Path: filepath.Clean(rest)}, nil
	case SchemeMem:
		if rest != "" {
			return Locator{}, fmt.Errorf("%s: mem: takes no path (got %q, want mem:)", flag, rest)
		}
		return Locator{Scheme: SchemeMem}, nil
	case SchemeHTTP, SchemeHTTPS:
		if !strings.HasPrefix(rest, "//") || rest == "//" {
			return Locator{}, fmt.Errorf("%s: %s: missing host (want %s://HOST:PORT/c/ID)", flag, scheme, scheme)
		}
		// The path is the remainder of the URL; String() rejoins the
		// two halves into the original http://... form.
		return Locator{Scheme: scheme, Path: rest}, nil
	default:
		return Locator{}, fmt.Errorf("%s: unknown backend scheme %q (registered schemes: %s)", flag, scheme, schemeList())
	}
}

// URL reconstructs the full URL for http/https locators.
func (l Locator) URL() string { return l.Scheme + ":" + l.Path }
