package peer

import (
	"encoding/json"
	"io"
	"net/http"
	"time"

	"starts/internal/qcache"
)

// NewHandler serves a node's ring share over HTTP — the receiving end
// of the peer transport:
//
//	GET    /peer/cache/{key}  -> entry bytes + freshness headers, 404 on miss
//	PUT    /peer/cache/{key}  <- entry bytes + freshness headers
//	DELETE /peer/cache/{key}  -> eviction (404 when absent is still success)
//	GET    /peer/len          -> {"len": N}, this node's local entry count
//
// The handler reads and writes the store's LOCAL backend only, never
// the ring: a request for a key this node does not own is simply a
// local miss, so two peers with disagreeing ring views cannot proxy a
// request around in a loop.
func NewHandler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /peer/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		e, ok := s.local.Get(key, s.now())
		if !ok {
			http.Error(w, "no entry", http.StatusNotFound)
			return
		}
		data, err := s.codec.Encode(e.Val)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set(HeaderExpires, e.Expires.Format(time.RFC3339Nano))
		w.Header().Set(HeaderStaleUntil, e.StaleUntil.Format(time.RFC3339Nano))
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	})
	mux.HandleFunc("PUT /peer/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		expires, err1 := time.Parse(time.RFC3339Nano, r.Header.Get(HeaderExpires))
		staleUntil, err2 := time.Parse(time.RFC3339Nano, r.Header.Get(HeaderStaleUntil))
		if err1 != nil || err2 != nil {
			http.Error(w, "missing or malformed freshness headers", http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, maxEntryBytes+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(data) > maxEntryBytes {
			http.Error(w, "entry too large", http.StatusRequestEntityTooLarge)
			return
		}
		val, err := s.codec.Decode(data)
		if err != nil {
			http.Error(w, "undecodable entry: "+err.Error(), http.StatusBadRequest)
			return
		}
		if s.now().After(staleUntil) {
			// Dead on arrival (slow wire, skewed clock): storing it would
			// only make the next Get prune it.
			w.WriteHeader(http.StatusNoContent)
			return
		}
		s.local.Put(key, qcache.Entry{Val: val, Expires: expires, StaleUntil: staleUntil})
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /peer/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		s.local.Evict(r.PathValue("key"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /peer/len", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Len int `json:"len"`
		}{Len: s.local.Len()})
	})
	return mux
}
