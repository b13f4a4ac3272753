package obs

import (
	"fmt"
	"net/http"
)

// Handler serves the registry's Render output as text/plain — the
// /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = fmt.Fprint(w, r.Render())
	})
}

// Handler serves the ring's trace trees as text/plain, newest first,
// snapshotted as the page is read — the /debug/last-traces endpoint.
func (tr *TraceRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snaps := tr.Snapshots()
		if len(snaps) == 0 {
			_, _ = fmt.Fprintln(w, "no traces recorded yet")
			return
		}
		for i, ti := range snaps {
			fmt.Fprintf(w, "#%d started %s\n%s\n", i, ti.Start.Format("15:04:05.000"), ti.Tree())
		}
	})
}
