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
//	     A body carrying more than one @SQuery is a 400.
//
// A failure before the response starts is an HTTP status; once a framed
// (?stream=1) response has started, it is an in-band error frame. All communication is sessionless and the sources are
// stateless, per Section 4.
//
// The server is observable by default: every route is counted and timed
// into an obs.Registry served at GET /metrics, and each query request
// records a decode/search/encode trace into a ring served at
// GET /debug/last-traces.
package server

import (
	"compress/gzip"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
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

// traceCapacity is how many recent query traces /debug/last-traces keeps.
const traceCapacity = 32

// Server serves a list of conns as one STARTS resource.
type Server struct {
	conns    map[string]client.Conn
	docNames map[string]string       // per-source starts_server_query_docs_total, built once
	titles   map[string]fmt.Stringer // per-source query trace titles, built once
	resource *meta.Resource          // the /resource answer: every conn, in order
	baseURL  string
	mux      *http.ServeMux
	metrics  *obs.Registry
	traces   *obs.TraceRing
	gate     *qcache.Gate

	maxInflight  int
	queueTimeout time.Duration
}

// Option configures a Server.
type Option func(*Server)

// WithMetrics records into an externally owned registry instead of a
// private one — share it to merge several components onto one /metrics.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
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
		docNames: make(map[string]string, len(conns)),
		titles:   make(map[string]fmt.Stringer, len(conns)),
		resource: &meta.Resource{},
		baseURL:  strings.TrimRight(baseURL, "/"),
		mux:      http.NewServeMux(),
		traces:   obs.NewTraceRing(traceCapacity),
	}
	for _, c := range conns {
		srv.conns[c.SourceID()] = c
		srv.docNames[c.SourceID()] = obs.L("starts_server_query_docs_total", "source", c.SourceID())
		srv.titles[c.SourceID()] = obs.Title("query " + c.SourceID())
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
	srv.gate = qcache.NewGate(srv.maxInflight, srv.queueTimeout, srv.metrics)
	srv.route("GET /resource", "resource", srv.handleResource)
	srv.route("GET /sources/{id}/metadata", "metadata", srv.handleMetadata)
	srv.route("GET /sources/{id}/summary", "summary", srv.handleSummary)
	srv.route("GET /sources/{id}/sample", "sample", srv.handleSample)
	srv.route("POST /sources/{id}/query", "query", srv.handleQuery)
	srv.mux.Handle("GET /metrics", srv.metrics.Handler())
	srv.mux.Handle("GET /debug/last-traces", srv.traces.Handler())
	return srv
}

// route registers an instrumented handler: a per-route latency histogram
// (its _count is the route's request count) and error counter. Only an
// error's name, which carries its status code, is built per request.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	seconds := obs.L("starts_server_seconds", "route", name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		if sw.status >= 400 {
			s.metrics.Counter(obs.L("starts_server_errors_total", "route", name,
				"code", strconv.Itoa(sw.status))).Inc()
		}
		s.metrics.Histogram(seconds).Observe(time.Since(start))
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
// streaming handlers (the ?stream=1 query route) can push each frame to the
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

// gzipWriters recycles compressors across responses: a fresh
// gzip.Writer allocates some 800 KB of compression state.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// writeSOIF delivers a payload — SOIF text, or err if it could not be
// marshaled, which is a 500 — in the encoding the request asked for: the
// text itself by default, JSON when Accept prefers it, built from the
// text's objects so that every route encodes SOIF one way. Large
// responses are gzipped for clients that accept it; content summaries in
// particular compress extremely well (Go's default HTTP client sends
// Accept-Encoding: gzip and decompresses transparently).
func writeSOIF(w http.ResponseWriter, r *http.Request, data []byte, err error) {
	ct := ContentType
	if err == nil && wantsJSON(r) {
		var objs []*soif.Object
		if objs, err = soif.UnmarshalAll(data); err == nil {
			data, err = soif.MarshalAllJSON(objs)
		}
		ct = JSONContentType
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ct)
	// The representation varies with Accept (encoding) and
	// Accept-Encoding (compression); a shared cache must key on both.
	w.Header().Set("Vary", "Accept, Accept-Encoding")
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") && len(data) > 1024 {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzipWriters.Get().(*gzip.Writer)
		gz.Reset(w)
		_, _ = gz.Write(data)
		_ = gz.Close()
		gzipWriters.Put(gz)
		return
	}
	_, _ = w.Write(data)
}

func (s *Server) handleResource(w http.ResponseWriter, r *http.Request) {
	data, err := s.resource.Marshal()
	writeSOIF(w, r, data, err)
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
	// side of the wire; every endpoint lives here. A conn whose metadata
	// names no sample results (a core.Broker) is published with none.
	sample := ""
	if m.SampleDatabaseResults != "" {
		sample = s.sourceURL(m.SourceID, "sample")
	}
	served := m.ToSOIFAt(s.sourceURL(m.SourceID, "query"), s.sourceURL(m.SourceID, "summary"), sample)
	data, err := soif.Marshal(served)
	writeSOIF(w, r, data, err)
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
	data, err := sum.Marshal()
	writeSOIF(w, r, data, err)
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
	data, err := source.AppendSample(nil, entries)
	writeSOIF(w, r, data, err)
}
