package serve

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/coord"
	"repro/internal/serve/wire"
)

// maxBodyBytes bounds any single store object or coordinator record.
// Report-scale sweep results are a few KB; the limit only exists so a
// confused client cannot exhaust the server.
const maxBodyBytes = 64 << 20

// Handler returns the server's routing table. Safe to share across
// listeners.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/campaigns", s.auth(s.handleCreate))
	mux.HandleFunc("GET /v1/campaigns/{id}/status", s.auth(s.handleStatus))
	mux.HandleFunc("GET /v1/campaigns/{id}/rows", s.auth(s.handleRows))
	mux.HandleFunc("GET /c/{id}/now", s.auth(s.handleNow))
	mux.HandleFunc("GET /c/{id}/store/o/{key}", s.auth(s.handleStoreGet))
	mux.HandleFunc("PUT /c/{id}/store/o/{key}", s.auth(s.handleStorePut))
	mux.HandleFunc("DELETE /c/{id}/store/o/{key}", s.auth(s.handleStoreDelete))
	mux.HandleFunc("GET /c/{id}/store/visit", s.auth(s.handleStoreVisit))
	mux.HandleFunc("GET /c/{id}/coord/k/{key...}", s.auth(s.handleCoordGet))
	mux.HandleFunc("PUT /c/{id}/coord/k/{key...}", s.auth(s.handleCoordPut))
	mux.HandleFunc("POST /c/{id}/coord/k/{key...}", s.auth(s.handleCoordCreate))
	mux.HandleFunc("GET /c/{id}/coord/list", s.auth(s.handleCoordList))
	return mux
}

// auth enforces the bearer token (constant-time compare) when one is
// configured.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.Token == "" {
		return h
	}
	want := []byte("Bearer " + s.cfg.Token)
	return func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if len(got) != len(want) || subtle.ConstantTimeCompare(got, want) != 1 {
			s.error(w, http.StatusUnauthorized, "missing or wrong bearer token")
			return
		}
		h(w, r)
	}
}

func (s *Server) json(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Printf("serve: encode response: %v", err)
	}
}

func (s *Server) error(w http.ResponseWriter, code int, format string, args ...any) {
	s.json(w, code, wire.Error{V: wire.APIVersion, Message: fmt.Sprintf(format, args...)})
}

// campaign resolves the {id} path value, mapping unknown ids to 404.
func (s *Server) campaign(w http.ResponseWriter, r *http.Request) *Campaign {
	id := r.PathValue("id")
	c, err := s.Campaign(id)
	if errors.Is(err, fs.ErrNotExist) {
		s.error(w, http.StatusNotFound, "no campaign %q", id)
		return nil
	}
	if err != nil {
		s.error(w, http.StatusInternalServerError, "%v", err)
		return nil
	}
	return c
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	spec, err := wire.DecodeSpec(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.error(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := s.Create(spec)
	if err != nil {
		s.error(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.log.Printf("serve: campaign %s created (kind %s)", c.ID(), spec.Kind)
	s.json(w, http.StatusCreated, wire.Created{V: wire.APIVersion, ID: c.ID(), Path: "/c/" + c.ID()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	resp := wire.Status{V: wire.APIVersion, ID: camp.ID()}
	c, err := coord.Open(coord.Config{Backend: camp.Coord()})
	if errors.Is(err, coord.ErrUninitialised) {
		s.json(w, http.StatusOK, resp) // pool not formed yet: all zeroes
		return
	}
	if err != nil {
		s.error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	st, err := c.Status()
	if err != nil {
		s.error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp.Initialised = true
	for _, sh := range st.Shards {
		resp.Shards = append(resp.Shards, wire.ShardStatus{
			Shard: sh.Shard, State: string(sh.State), Owner: sh.Owner, Attempts: sh.Attempts,
		})
	}
	resp.Done, _, _ = st.Counts()
	drained, derr := c.CheckDrained(st)
	resp.Drained = drained
	if derr != nil {
		resp.Dead = derr.Error()
	}
	s.json(w, http.StatusOK, resp)
}

// sseWriter turns each report chunk written by the renderer into one
// SSE row event, flushed immediately: concatenating the Text fields in
// Seq order reproduces the local report byte-for-byte.
type sseWriter struct {
	w   http.ResponseWriter
	f   http.Flusher
	seq int
}

func (sw *sseWriter) Write(p []byte) (int, error) {
	ev := wire.RowEvent{V: wire.APIVersion, Seq: sw.seq, Text: string(p)}
	sw.seq++
	if err := wire.WriteEvent(sw.w, "row", ev); err != nil {
		return 0, err
	}
	sw.f.Flush()
	return len(p), nil
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Rows == nil {
		s.error(w, http.StatusNotImplemented, "this server hosts backends only; it has no row renderer")
		return
	}
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	f, ok := w.(http.Flusher)
	if !ok {
		s.error(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	sw := &sseWriter{w: w, f: f}
	if err := s.cfg.Rows(r.Context(), camp, sw); err != nil {
		s.log.Printf("serve: campaign %s rows: %v", camp.ID(), err)
		_ = wire.WriteEvent(w, "error", wire.Error{V: wire.APIVersion, Message: err.Error()})
		f.Flush()
		return
	}
	_ = wire.WriteEvent(w, "done", wire.Status{V: wire.APIVersion, ID: camp.ID(), Drained: true})
	f.Flush()
}

func (s *Server) handleNow(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	s.json(w, http.StatusOK, wire.Now{UnixNano: camp.Coord().Now().UnixNano()})
}

// validStoreKey mirrors the store's own key shape (64 hex digits).
// The fs backend fans paths out on key prefixes, so the server must
// reject malformed keys before they reach a backend.
func validStoreKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// storeKey resolves and validates the {key} path value.
func (s *Server) storeKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !validStoreKey(key) {
		s.error(w, http.StatusBadRequest, "malformed store key %q (want 64 hex digits)", key)
		return "", false
	}
	return key, true
}

func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	key, ok := s.storeKey(w, r)
	if !ok {
		return
	}
	data, ok := camp.store.Load(key)
	if !ok {
		s.error(w, http.StatusNotFound, "no object %s", key)
		return
	}
	// An explicit length keeps a large object from being chunked, so the
	// client sizes its read buffer once.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	key, ok := s.storeKey(w, r)
	if !ok {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.error(w, http.StatusBadRequest, "read object body: %v", err)
		return
	}
	if err := camp.store.Store(key, data); err != nil {
		s.error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStoreDelete(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	key, ok := s.storeKey(w, r)
	if !ok {
		return
	}
	if err := camp.store.Delete(key); err != nil {
		s.error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStoreVisit(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	junk, err := camp.store.Visit(func(key string, data []byte) error {
		return enc.Encode(wire.VisitLine{Key: key, Data: data})
	})
	if err != nil {
		// Headers are gone; ending the stream without the EOF trailer
		// is what tells the client the enumeration is incomplete.
		s.log.Printf("serve: campaign %s visit: %v", camp.ID(), err)
		return
	}
	_ = enc.Encode(wire.VisitLine{EOF: true, Junk: junk})
}

// validCoordKey vets a coordinator logical path ("coordinator.json",
// "shard-0007/gen-0001.claim"): short slash paths of conservative
// segments, so no backend ever sees traversal or absolute paths.
func validCoordKey(key string) bool {
	if key == "" || len(key) > 256 {
		return false
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
		for _, r := range seg {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
			default:
				return false
			}
		}
	}
	return true
}

func (s *Server) coordKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !validCoordKey(key) {
		s.error(w, http.StatusBadRequest, "malformed coordinator key %q", key)
		return "", false
	}
	return key, true
}

func (s *Server) handleCoordGet(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	key, ok := s.coordKey(w, r)
	if !ok {
		return
	}
	data, err := camp.coord.Get(key)
	if errors.Is(err, fs.ErrNotExist) {
		s.error(w, http.StatusNotFound, "no record %s", key)
		return
	}
	if err != nil {
		s.error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Server) coordBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.error(w, http.StatusBadRequest, "read record body: %v", err)
		return nil, false
	}
	return data, true
}

func (s *Server) handleCoordPut(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	key, ok := s.coordKey(w, r)
	if !ok {
		return
	}
	data, ok := s.coordBody(w, r)
	if !ok {
		return
	}
	if err := camp.coord.Put(key, data); err != nil {
		s.error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCoordCreate(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	key, ok := s.coordKey(w, r)
	if !ok {
		return
	}
	data, ok := s.coordBody(w, r)
	if !ok {
		return
	}
	err := camp.coord.Create(key, data)
	if errors.Is(err, fs.ErrExist) {
		s.error(w, http.StatusConflict, "record %s already exists", key)
		return
	}
	if err != nil {
		s.error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleCoordList(w http.ResponseWriter, r *http.Request) {
	camp := s.campaign(w, r)
	if camp == nil {
		return
	}
	dir := r.URL.Query().Get("dir")
	if dir != "" && !validCoordKey(dir) {
		s.error(w, http.StatusBadRequest, "malformed coordinator prefix %q", dir)
		return
	}
	names, err := camp.coord.List(dir)
	if errors.Is(err, fs.ErrNotExist) {
		s.error(w, http.StatusNotFound, "no prefix %s", dir)
		return
	}
	if err != nil {
		s.error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.json(w, http.StatusOK, wire.Names{Names: names})
}
