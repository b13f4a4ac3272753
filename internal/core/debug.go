package core

import (
	"encoding/json"
	"net/http"

	"starts/internal/qcache"
)

// DebugRoute is one route on the metasearcher's debug mux: a Go 1.22
// mux pattern ("GET /debug/peers") and its handler. DebugHandler mounts
// its built-in routes from a table of these; callers append their own
// (the peer tier's /debug/peers view, say) without touching this file.
type DebugRoute struct {
	Pattern string
	Handler http.Handler
}

// DebugJSON adapts a snapshot function into a debug handler serving its
// result as indented JSON — the shape every tabular debug route shares.
func DebugJSON(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snapshot())
	})
}

// DebugHandler exposes the metasearcher's operational state over HTTP,
// mirroring the server-side endpoints so a long-running metasearcher
// (e.g. metasearch with -debug-addr) is inspectable too:
//
//	GET /metrics          the registry in Prometheus text format
//	GET /debug/workload   the recorded warm-start workload as JSON lines
//	                      (the same format -warm-file persists, so a
//	                      snapshot can be fed straight back to Warm)
//	GET /debug/dispatch   per-source dispatch queue stats as JSON
//
// Extra routes are mounted after the built-ins, so a caller wiring the
// distributed cache tier adds its /debug/peers view here rather than
// running a second mux.
func (m *Metasearcher) DebugHandler(extra ...DebugRoute) http.Handler {
	routes := []DebugRoute{
		{Pattern: "GET /metrics", Handler: m.metrics.Handler()},
		{Pattern: "GET /debug/workload", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := qcache.SaveWorkload(w, m.Workload()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})},
		{Pattern: "GET /debug/dispatch", Handler: DebugJSON(func() any {
			return m.DispatchStats()
		})},
	}
	mux := http.NewServeMux()
	for _, rt := range append(routes, extra...) {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	return mux
}
