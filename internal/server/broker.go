package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
)

// ConnServer serves any client.Conn as a one-source STARTS resource
// over HTTP — the publishing half of a broker hierarchy. A regional
// metasearcher wraps itself in a core.Broker (a Conn), a ConnServer
// puts that Conn on the wire, and a front metasearcher discovers and
// queries it exactly like any leaf source: ZBroker-style routing built
// entirely from the protocol's own pieces.
//
// The routes mirror Server's, with the Conn behind them:
//
//	GET  /resource                 -> @SResource naming the one source
//	GET  /sources/{id}/metadata    -> the Conn's metadata, its linkage
//	     URLs rewritten to point back at this server (a core.Broker
//	     exports starts-broker:// placeholders; harvesters need HTTP)
//	GET  /sources/{id}/summary     -> the Conn's content summary
//	GET  /sources/{id}/sample      -> the Conn's sample results
//	POST /sources/{id}/query       -> one query through the Conn
//	POST /sources/{id}/query-batch -> @SQBatchItem-framed stream; the
//	     whole batch is one QueryBatch call on the Conn (a plain Conn
//	     runs the items concurrently, see client.Batched)
type ConnServer struct {
	conn client.BatchConn
	// stream is conn's streaming side, nil when it has none (core.Broker
	// has one — its metasearcher streams rank-stable prefixes as sources
	// complete). A ?stream=1 query against a plain Conn still gets stream
	// framing, just with everything in the terminal frame.
	stream  client.StreamConn
	baseURL string
	mux     *http.ServeMux
}

// NewConnServer serves conn at baseURL (scheme://host[:port], no
// trailing slash — stamped into the exported metadata's linkage URLs).
func NewConnServer(conn client.Conn, baseURL string) *ConnServer {
	cs := &ConnServer{conn: client.Batched(conn), baseURL: strings.TrimSuffix(baseURL, "/"), mux: http.NewServeMux()}
	cs.stream, _ = conn.(client.StreamConn)
	cs.mux.HandleFunc("GET /resource", cs.handleResource)
	cs.mux.HandleFunc("GET /sources/{id}/metadata", cs.withSource(cs.handleMetadata))
	cs.mux.HandleFunc("GET /sources/{id}/summary", cs.withSource(cs.handleSummary))
	cs.mux.HandleFunc("GET /sources/{id}/sample", cs.withSource(cs.handleSample))
	cs.mux.HandleFunc("POST /sources/{id}/query", cs.withSource(cs.handleQuery))
	cs.mux.HandleFunc("POST /sources/{id}/query-batch", cs.withSource(cs.handleQueryBatch))
	return cs
}

// ServeHTTP implements http.Handler.
func (cs *ConnServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cs.mux.ServeHTTP(w, r)
}

// withSource guards a route against requests for a source this server
// does not carry.
func (cs *ConnServer) withSource(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if id := r.PathValue("id"); id != cs.conn.SourceID() {
			http.Error(w, fmt.Sprintf("unknown source %q", id), http.StatusNotFound)
			return
		}
		h(w, r)
	}
}

// sourceURL is this server's URL for one of the source's endpoints.
func (cs *ConnServer) sourceURL(suffix string) string {
	return cs.baseURL + "/sources/" + cs.conn.SourceID() + "/" + suffix
}

func (cs *ConnServer) handleResource(w http.ResponseWriter, r *http.Request) {
	res := &meta.Resource{Entries: []meta.ResourceEntry{{
		SourceID:    cs.conn.SourceID(),
		MetadataURL: cs.sourceURL("metadata"),
	}}}
	writeObjects(w, r, []*soif.Object{res.ToSOIF()})
}

func (cs *ConnServer) handleMetadata(w http.ResponseWriter, r *http.Request) {
	m, err := cs.conn.Metadata(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	// The Conn's own linkage (a core.Broker's starts-broker://
	// placeholders, or a leaf's internal URLs) is unreachable from the
	// harvester's side of the wire; every endpoint lives here now.
	mm := *m
	mm.Linkage = cs.sourceURL("query")
	mm.ContentSummaryLinkage = cs.sourceURL("summary")
	mm.SampleDatabaseResults = cs.sourceURL("sample")
	writeObjects(w, r, []*soif.Object{mm.ToSOIF()})
}

func (cs *ConnServer) handleSummary(w http.ResponseWriter, r *http.Request) {
	sum, err := cs.conn.Summary(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeObjects(w, r, []*soif.Object{sum.ToSOIF()})
}

func (cs *ConnServer) handleSample(w http.ResponseWriter, r *http.Request) {
	entries, err := cs.conn.Sample(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
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

// handleQuery evaluates one query through the Conn. The request is
// decoded up front so malformed queries still get their 4xx, but the
// HTTP preamble is committed and flushed before the (potentially long)
// merge behind the Conn completes: the ConnServer fronts a whole broker
// fan-out, and a client should see bytes when the search starts, not
// when its slowest source finishes. A failure after the committed
// preamble is reported as an in-band @SQStreamItem error object, which
// result.Parse surfaces as a *result.StreamError. JSON responses keep
// the buffered path (and its HTTP error statuses): the JSON rendering
// is one document, not a stream.
//
// With ?stream=1 the response is @SQStreamItem-framed and, when the
// Conn supports streaming, each rank-stable slice of the answer is
// written and flushed the moment the merge proves it final.
func (cs *ConnServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxQueryBytes {
		http.Error(w, "query too large", http.StatusRequestEntityTooLarge)
		return
	}
	obj, err := soif.Unmarshal(body)
	if err != nil {
		http.Error(w, "malformed query object: "+err.Error(), http.StatusBadRequest)
		return
	}
	q, err := query.FromSOIF(obj)
	if err != nil {
		http.Error(w, "malformed query: "+err.Error(), http.StatusBadRequest)
		return
	}
	if wantsJSON(r) {
		rr, err := cs.conn.Query(r.Context(), q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		writeObjects(w, r, rr.ToSOIF())
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	flushTo(w)
	enc := soif.NewEncoder(w)
	if streamWanted(r) {
		cs.streamQuery(w, enc, r, q)
		return
	}
	rr, err := cs.conn.Query(r.Context(), q)
	if err != nil {
		_ = result.EncodeStreamError(enc, err)
		return
	}
	for _, o := range rr.ToSOIF() {
		if enc.Encode(o) != nil {
			return
		}
	}
}

// streamQuery writes a ?stream=1 answer. A streaming Conn drives the
// frames itself (each flushed as it stabilizes); a plain Conn yields a
// single terminal frame once its merge completes.
func (cs *ConnServer) streamQuery(w http.ResponseWriter, enc *soif.Encoder, r *http.Request, q *query.Query) {
	if cs.stream == nil {
		rr, err := cs.conn.Query(r.Context(), q)
		if err != nil {
			_ = result.EncodeStreamError(enc, err)
			return
		}
		if result.EncodeStreamFinal(enc, rr) == nil {
			flushTo(w)
		}
		return
	}
	_, err := cs.stream.QueryStream(r.Context(), q, func(it result.StreamItem) error {
		var werr error
		if it.Final != nil {
			werr = result.EncodeStreamFinal(enc, it.Final)
		} else {
			werr = result.EncodeStreamDocs(enc, it.Rank, it.Docs)
		}
		if werr != nil {
			return werr
		}
		flushTo(w)
		return nil
	})
	if err != nil {
		_ = result.EncodeStreamError(enc, err)
	}
}

// handleQueryBatch mirrors Server's batch route over the Conn: the body
// is a stream of @SQuery objects, the response a stream of @SQBatchItem
// frames, written once the Conn's one QueryBatch call returns.
func (cs *ConnServer) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	qs, err := decodeBatchRequest(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if err == errBatchTooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	results, errs := cs.conn.QueryBatch(r.Context(), qs)
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	enc := soif.NewEncoder(w)
	for i := range qs {
		if werr := result.EncodeBatchItem(enc, i, results[i], errs[i]); werr != nil {
			return
		}
	}
}
