package core

import (
	"encoding/json"
	"net/http"

	"starts/internal/qcache"
)

// DebugHandler exposes the metasearcher's operational state over HTTP,
// mirroring the server-side endpoints so a long-running metasearcher
// (e.g. metasearch with -debug-addr) is inspectable too:
//
//	GET /metrics          the registry in Prometheus text format
//	GET /debug/workload   the recorded warm-start workload as JSON lines
//	                      (the same format -warm-file persists, so a
//	                      snapshot can be fed straight back to Warm)
//	GET /debug/dispatch   per-source dispatch queue stats as JSON
func (m *Metasearcher) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", m.opts.Metrics.Handler())
	mux.HandleFunc("GET /debug/workload", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := qcache.SaveWorkload(w, m.Workload()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /debug/dispatch", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.DispatchStats())
	})
	return mux
}
