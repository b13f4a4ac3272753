// Package server exposes STARTS sources over HTTP. The paper leaves
// transport deliberately unspecified ("what transport to use generated
// some heated debate"); this server delivers the SOIF objects over plain
// HTTP, the transport the examples assume. What it serves is a list of
// client.Conns — an in-process source, a core.Broker (a whole
// metasearcher publishing itself as one source), anything that answers
// the five Conn calls — all through the same routes:
//
//	GET  /resource               -> @SResource naming every conn
//	GET  /sources/{id}/metadata  -> @SMetaAttributes (Conn.Metadata, its
//	     linkage rewritten to this server's URLs)
//	GET  /sources/{id}/summary   -> @SContentSummary (Conn.Summary)
//	GET  /sources/{id}/sample    -> sample-database results (Conn.Sample)
//	POST /sources/{id}/query     -> @SQResults stream (body: @SQuery;
//	     Conn.Query). With ?stream=1 the answer is @SQStreamItem-framed
//	     and a client.StreamConn's frames are flushed as they stabilize.
//	POST /sources/{id}/query-batch -> @SQBatchItem-framed stream, one
//	     frame per sub-query in completion order (body: @SQuery stream;
//	     one concurrent Conn.Query per item)
//
// A failure before the response starts is an HTTP status; once a framed
// response (?stream=1, query-batch) has started, it is an in-band error
// frame. All communication is sessionless and the sources are
// stateless, per Section 4.
//
// The server is observable by default: every route is counted and timed
// into an obs.Registry served at GET /metrics, and each query request
// records a decode/search/encode trace into a ring served at
// GET /debug/last-traces.
package server

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/soif"
	"starts/internal/source"
)

// ContentType is the media type used for SOIF payloads.
const ContentType = "application/x-soif"

// JSONContentType is the media type of the alternative JSON encoding,
// served when a request's Accept header prefers it (the paper leaves the
// wire format open; SOIF and JSON are this implementation's two).
const JSONContentType = "application/json"

// Server serves a list of conns as one STARTS resource.
type Server struct {
	conns    map[string]client.Conn
	resource *meta.Resource // the /resource answer: every conn, in order
	baseURL  string
	mux      *http.ServeMux
	metrics  *obs.Registry
	traces   *obs.TraceRing
	gate     *qcache.Gate

	maxInflight  int
	queueTimeout time.Duration

	peers PeerCache
}

// PeerCache is the slice of peer.Store the server mounts: the wire
// handler for this node's ring share and the /debug/peers view. It is
// declared structurally (peer.Store satisfies it) so the server package
// does not depend on the peer package.
type PeerCache interface {
	Handler() http.Handler
	DebugHandler() http.Handler
}

// Option configures a Server.
type Option func(*Server)

// WithMetrics records into an externally owned registry instead of a
// private one — share it to merge several components onto one /metrics.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithTraceCapacity sizes the /debug/last-traces ring (default 32).
func WithTraceCapacity(n int) Option {
	return func(s *Server) { s.traces = obs.NewTraceRing(n) }
}

// WithMaxInflight bounds concurrent query evaluations to n. Excess
// requests wait up to queueTimeout (qcache.DefaultQueueTimeout if zero)
// for a slot and are then shed with a fast 503 + Retry-After instead of
// queueing without bound; sheds count as starts_qcache_shed_total on
// /metrics. n <= 0 leaves queries unbounded.
func WithMaxInflight(n int, queueTimeout time.Duration) Option {
	return func(s *Server) {
		s.maxInflight = n
		s.queueTimeout = queueTimeout
	}
}

// WithPeerCache mounts the distributed cache tier's receiving end on
// this server: the store's local backend served at GET/PUT/DELETE
// /peer/cache/{key} and GET /peer/len (instrumented like every other
// route), plus the ring snapshot at GET /debug/peers. The store should
// name this server's base URL as its Config.Self so the ring share this
// node owns is served from here.
func WithPeerCache(ps PeerCache) Option {
	return func(s *Server) { s.peers = ps }
}

// New returns a server for the in-process sources of res: NewConns over
// one client.NewLocalConn per source.
func New(res *source.Resource, baseURL string, opts ...Option) *Server {
	ids := res.SourceIDs()
	conns := make([]client.Conn, len(ids))
	for i, id := range ids {
		src, _ := res.Source(id)
		conns[i] = client.NewLocalConn(src, res)
	}
	return NewConns(conns, baseURL, opts...)
}

// NewConns returns a server for conns, whose source IDs must be distinct.
// baseURL (scheme://host[:port]) is where the server is reachable: the
// resource description and every served metadata object point back at it.
func NewConns(conns []client.Conn, baseURL string, opts ...Option) *Server {
	srv := &Server{
		conns:    make(map[string]client.Conn, len(conns)),
		resource: &meta.Resource{},
		baseURL:  strings.TrimRight(baseURL, "/"),
		mux:      http.NewServeMux(),
	}
	for _, c := range conns {
		srv.conns[c.SourceID()] = c
		srv.resource.Entries = append(srv.resource.Entries, meta.ResourceEntry{
			SourceID:    c.SourceID(),
			MetadataURL: srv.sourceURL(c.SourceID(), "metadata"),
		})
	}
	for _, o := range opts {
		o(srv)
	}
	if srv.metrics == nil {
		srv.metrics = obs.NewRegistry()
	}
	if srv.traces == nil {
		srv.traces = obs.NewTraceRing(32)
	}
	srv.gate = qcache.NewGate(srv.maxInflight, srv.queueTimeout, srv.metrics)
	srv.route("GET /resource", "resource", srv.handleResource)
	srv.route("GET /sources/{id}/metadata", "metadata", srv.handleMetadata)
	srv.route("GET /sources/{id}/summary", "summary", srv.handleSummary)
	srv.route("GET /sources/{id}/sample", "sample", srv.handleSample)
	srv.queryRoute("query", maxQueryBytes, srv.handleQuery)
	srv.queryRoute("query-batch", maxBatchBytes, srv.handleBatch)
	srv.mux.Handle("GET /metrics", srv.metrics.Handler())
	srv.mux.Handle("GET /debug/last-traces", srv.traces.Handler())
	if srv.peers != nil {
		ph := srv.peers.Handler()
		srv.route("GET /peer/cache/{key}", "peer-cache", ph.ServeHTTP)
		srv.route("PUT /peer/cache/{key}", "peer-cache", ph.ServeHTTP)
		srv.route("DELETE /peer/cache/{key}", "peer-cache", ph.ServeHTTP)
		srv.route("GET /peer/len", "peer-len", ph.ServeHTTP)
		srv.mux.Handle("GET /debug/peers", srv.peers.DebugHandler())
	}
	return srv
}

// Metrics returns the registry the server records into.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Traces returns the ring behind /debug/last-traces.
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// route registers an instrumented handler: per-route request and error
// counters plus a latency histogram.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.Counter(obs.L("starts_server_requests_total", "route", name)).Inc()
		if sw.status >= 400 {
			s.metrics.Counter(obs.L("starts_server_errors_total", "route", name,
				"code", strconv.Itoa(sw.status))).Inc()
		}
		s.metrics.Histogram(obs.L("starts_server_seconds", "route", name)).
			Observe(time.Since(start))
	})
}

// statusWriter captures the status code for the route instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the underlying writer when it supports flushing, so
// streaming handlers (the batch query route) can push each frame to the
// client the moment it is written.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// conn resolves the route's {id}, answering 404 for a source this server
// does not carry.
func (s *Server) conn(w http.ResponseWriter, r *http.Request) (client.Conn, bool) {
	id := r.PathValue("id")
	c, ok := s.conns[id]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown source %q", id), http.StatusNotFound)
	}
	return c, ok
}

// sourceURL is this server's URL for one of a source's endpoints.
func (s *Server) sourceURL(id, endpoint string) string {
	return s.baseURL + "/sources/" + id + "/" + endpoint
}

// wantsJSON reports whether the request prefers the JSON encoding.
func wantsJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), JSONContentType)
}

// marshalObjects renders SOIF objects in the encoding the request asked
// for: length-framed SOIF text by default, JSON when Accept prefers it.
func marshalObjects(r *http.Request, objs []*soif.Object) (data []byte, contentType string, err error) {
	if wantsJSON(r) {
		data, err = soif.MarshalAllJSON(objs)
		return data, JSONContentType, err
	}
	data, err = soif.MarshalAll(objs)
	return data, ContentType, err
}

// deliver writes an already-marshaled payload, gzipping large responses
// for clients that accept it. Content summaries in particular compress
// extremely well (Go's default HTTP client sends Accept-Encoding: gzip
// and decompresses transparently).
func deliver(w http.ResponseWriter, r *http.Request, contentType string, data []byte) {
	w.Header().Set("Content-Type", contentType)
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") && len(data) > 1024 {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzip.NewWriter(w)
		_, _ = gz.Write(data)
		_ = gz.Close()
		return
	}
	_, _ = w.Write(data)
}

// writeObjects delivers SOIF objects with no cache validators (used by
// routes whose payload has no freshness metadata to derive them from).
func writeObjects(w http.ResponseWriter, r *http.Request, objs []*soif.Object) {
	data, ct, err := marshalObjects(r, objs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	deliver(w, r, ct, data)
}

// writeCacheable delivers SOIF objects with HTTP cache validators: a
// strong content-hash ETag (of the selected encoding, before
// compression) and a Cache-Control max-age derived from the source's
// metadata expiry. A request presenting a matching If-None-Match gets a
// bodyless 304 instead — the validator round-trip costs headers, not a
// re-marshaled summary.
func writeCacheable(w http.ResponseWriter, r *http.Request, objs []*soif.Object, maxAge time.Duration) {
	data, ct, err := marshalObjects(r, objs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sum := sha256.Sum256(data)
	etag := `"` + hex.EncodeToString(sum[:16]) + `"`
	h := w.Header()
	h.Set("ETag", etag)
	// The representation varies with Accept (encoding) and
	// Accept-Encoding (compression); caches must key on both.
	h.Set("Vary", "Accept, Accept-Encoding")
	if secs := int(maxAge.Seconds()); secs > 0 {
		h.Set("Cache-Control", "max-age="+strconv.Itoa(secs))
	} else {
		// No (or expired) freshness metadata: force revalidation, which
		// the ETag makes cheap.
		h.Set("Cache-Control", "no-cache")
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	deliver(w, r, ct, data)
}

// etagMatches reports whether an If-None-Match header value matches etag,
// honoring the wildcard, comma-separated candidate lists, and weak
// validators (RFC 9110's weak comparison suffices for 304s).
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// maxAge derives a Cache-Control lifetime from a conn's Metadata answer
// with the same rule the query cache uses for its per-entry TTLs
// (qcache.FreshFor): the time remaining until DateExpires, or a
// heuristic tenth of the age since DateChanged when only that is set —
// clamped to [0, one day]. Sources declaring neither, already past their
// expiry, or whose metadata cannot be had right now get 0 (serve with
// revalidation, which the ETag makes cheap).
func maxAge(md *meta.SourceMeta, err error) time.Duration {
	if err != nil {
		return 0
	}
	d, ok := qcache.FreshFor(md.DateChanged, md.DateExpires, time.Now())
	if !ok || d < 0 {
		return 0
	}
	if d > 24*time.Hour {
		d = 24 * time.Hour
	}
	return d
}

func (s *Server) handleResource(w http.ResponseWriter, r *http.Request) {
	writeObjects(w, r, []*soif.Object{s.resource.ToSOIF()})
}

func (s *Server) handleMetadata(w http.ResponseWriter, r *http.Request) {
	conn, ok := s.conn(w, r)
	if !ok {
		return
	}
	m, err := conn.Metadata(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	// The conn's own linkage (a source's starts:// or a core.Broker's
	// starts-broker:// placeholders) is unreachable from the harvester's
	// side of the wire; every endpoint lives here.
	served := m.ToSOIFAt(s.sourceURL(m.SourceID, "query"), s.sourceURL(m.SourceID, "summary"), s.sourceURL(m.SourceID, "sample"))
	writeCacheable(w, r, []*soif.Object{served}, maxAge(m, nil))
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	conn, ok := s.conn(w, r)
	if !ok {
		return
	}
	sum, err := conn.Summary(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeCacheable(w, r, []*soif.Object{sum.ToSOIF()}, maxAge(conn.Metadata(r.Context())))
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	conn, ok := s.conn(w, r)
	if !ok {
		return
	}
	entries, err := conn.Sample(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var objs []*soif.Object
	for _, e := range entries {
		qo, err := e.Query.ToSOIF()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		objs = append(objs, qo)
		objs = append(objs, e.Results.ToSOIF()...)
	}
	writeObjects(w, r, objs)
}
