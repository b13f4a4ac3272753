package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"starts/internal/client"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
)

// maxQueryBytes bounds the accepted query size; STARTS queries are small.
const maxQueryBytes = 1 << 20

// maxBatchBytes bounds an accepted batch request body; each query is
// small (maxQueryBytes), a batch is at most a few dozen of them.
const maxBatchBytes = 16 << 20

// maxBatchItems bounds the sub-queries one request may carry, so a
// single request cannot fan out unbounded server-side work.
const maxBatchItems = 256

// queryHandler answers the decoded queries of one admitted request.
type queryHandler func(w http.ResponseWriter, r *http.Request, conn client.Conn, tr *obs.Trace, qs []*query.Query)

// queryRoute registers POST /sources/{id}/<name> with the front both
// query routes share. Queries are the only expensive routes, so a
// request first takes one slot of the admission gate: a full gate
// answers 503 within the queue timeout — clients should back off and
// retry (the retry middleware treats 503 as temporary). An admitted
// request records a trace (decode → search → encode) into the
// /debug/last-traces ring, and h sees only well-formed queries from a
// body of at most maxBytes.
func (s *Server) queryRoute(name string, maxBytes int64, h queryHandler) {
	s.route("POST /sources/{id}/"+name, name, func(w http.ResponseWriter, r *http.Request) {
		conn, ok := s.conn(w, r)
		if !ok {
			return
		}
		release, err := s.gate.Acquire(r.Context())
		if err != nil {
			if errors.Is(err, qcache.ErrShed) {
				// Back-off advice derived from the gate's live congestion
				// (smoothed slot wait) rather than a constant.
				w.Header().Set("Retry-After", strconv.Itoa(s.gate.RetryAfter()))
			}
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer release()
		tr := obs.NewTrace(name + " " + conn.SourceID())
		defer func() {
			tr.Finish()
			s.traces.Add(tr)
		}()
		dsp := tr.StartSpan("decode")
		asJSON := strings.Contains(r.Header.Get("Content-Type"), JSONContentType)
		qs, err := decodeRequest(r.Body, maxBytes, asJSON)
		dsp.End(err)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, errTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		dsp.Annotate("items", strconv.Itoa(len(qs)))
		h(w, r, conn, tr, qs)
	})
}

var errTooLarge = errors.New("request too large")

// decodeRequest is the one request decoder: it reads a body of at most
// maxBytes as a stream of @SQuery objects (or, asJSON, as one object in
// the JSON encoding) and returns between one and maxBatchItems queries.
// Exceeding either bound is errTooLarge.
func decodeRequest(body io.Reader, maxBytes int64, asJSON bool) ([]*query.Query, error) {
	lr := &io.LimitedReader{R: body, N: maxBytes + 1}
	qs, err := decodeQueries(lr, asJSON)
	if err != nil {
		// What broke may be the truncation itself; see whether the body
		// overran before calling it malformed.
		_, _ = io.Copy(io.Discard, lr)
	}
	if lr.N <= 0 {
		return nil, errTooLarge
	}
	return qs, err
}

func decodeQueries(body io.Reader, asJSON bool) ([]*query.Query, error) {
	var objs []*soif.Object
	if asJSON {
		data, err := io.ReadAll(body)
		if err != nil {
			return nil, err
		}
		obj := &soif.Object{}
		if err := obj.UnmarshalJSON(data); err != nil {
			return nil, fmt.Errorf("malformed query object: %w", err)
		}
		objs = append(objs, obj)
	} else {
		dec := soif.NewDecoder(body)
		defer dec.Release()
		for {
			obj, err := dec.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("malformed query object %d: %w", len(objs), err)
			}
			if len(objs) == maxBatchItems {
				return nil, errTooLarge
			}
			objs = append(objs, obj)
		}
	}
	if len(objs) == 0 {
		return nil, errors.New("empty request: body must carry at least one @SQuery")
	}
	qs := make([]*query.Query, len(objs))
	for i, obj := range objs {
		var err error
		if qs[i], err = query.FromSOIF(obj); err != nil {
			return nil, fmt.Errorf("malformed query %d: %w", i, err)
		}
	}
	return qs, nil
}

// countDocs records a finished search's size on its span and on /metrics.
func (s *Server) countDocs(sp *obs.Span, source string, docs int) {
	sp.Annotate("docs", strconv.Itoa(docs))
	s.metrics.Counter(s.names[source].docs).Add(int64(docs))
}

// handleQuery answers one query, buffered: the conn's answer (or its
// failure, as an HTTP status) is known before the response starts, so
// the result carries cache validators.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, conn client.Conn, tr *obs.Trace, qs []*query.Query) {
	if len(qs) != 1 {
		http.Error(w, fmt.Sprintf("the query route takes one @SQuery, got %d; use query-batch", len(qs)), http.StatusBadRequest)
		return
	}
	if streamWanted(r) {
		s.streamQuery(w, r, conn, tr, qs[0])
		return
	}
	qsp := tr.StartSpan("search")
	qsp.SetSource(conn.SourceID())
	rr, err := client.Ask(r.Context(), conn, qs[0])
	qsp.End(err)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, client.ErrNoResult) {
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.countDocs(qsp, conn.SourceID(), len(rr.Documents))
	esp := tr.StartSpan("encode")
	data, err := rr.Marshal()
	writeCacheable(w, r, data, err, maxAge(conn.Metadata(r.Context())))
	esp.End(err)
}

// streamWanted reports whether the request asked for the chunked
// @SQStreamItem response framing. JSON responses stay buffered: the JSON
// rendering is a single document, not a frame stream.
func streamWanted(r *http.Request) bool {
	return r.URL.Query().Get("stream") != "" && !wantsJSON(r)
}

// flushTo pushes buffered response bytes to the client now, when the
// writer supports it.
func flushTo(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// A frameWriter writes each frame of a framed response in one Write, from
// one buffer, and flushes it. frameWriters recycles them; one whose buffer
// grew past 64 KiB is left to the collector.
type frameWriter struct {
	w   http.ResponseWriter
	buf []byte
}

var frameWriters = sync.Pool{New: func() any { return new(frameWriter) }}

// write sends frame, appended into fw.buf, unless appending it failed.
func (fw *frameWriter) write(frame []byte, err error) error {
	if err != nil {
		return err
	}
	fw.buf = frame
	if _, err = fw.w.Write(frame); err == nil {
		flushTo(fw.w)
	}
	return err
}

func (fw *frameWriter) release() {
	if cap(fw.buf) <= 64<<10 {
		*fw = frameWriter{buf: fw.buf[:0]}
		frameWriters.Put(fw)
	}
}

// streamQuery answers a ?stream=1 query with @SQStreamItem framing. The
// HTTP preamble is committed and flushed before the search runs, so the
// client sees time-to-first-byte immediately. A client.StreamConn drives
// the frames itself — a core.Broker's each rank-stable slice is written
// and flushed the moment its merge proves it final, an in-process
// source's whole answer is one terminal frame — and any other conn
// yields that one terminal frame once its Query returns. A failure
// after the committed preamble is an in-band error frame, which
// result.Parse and the stream decoder both surface as a
// *result.StreamError.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, conn client.Conn, tr *obs.Trace, q *query.Query) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	flushTo(w)
	fw := frameWriters.Get().(*frameWriter)
	fw.w = w
	defer fw.release()
	sink := func(it result.StreamItem) error {
		if it.Final != nil {
			return fw.write(result.AppendStreamFinal(fw.buf[:0], it.Final))
		}
		return fw.write(result.AppendStreamDocs(fw.buf[:0], it.Rank, it.Docs))
	}
	qsp := tr.StartSpan("search")
	qsp.SetSource(conn.SourceID())
	var (
		rr  *result.Results
		err error
	)
	if sc, ok := conn.(client.StreamConn); !ok {
		if rr, err = client.Ask(r.Context(), conn, q); err == nil {
			err = sink(result.StreamItem{Final: rr})
		}
	} else if rr, err = sc.QueryStream(r.Context(), q, sink); err == nil && rr == nil {
		err = client.ErrNoResult
	}
	qsp.End(err)
	if err != nil {
		_ = fw.write(result.AppendStreamError(fw.buf[:0], err), nil)
		return
	}
	s.countDocs(qsp, conn.SourceID(), len(rr.Documents))
}

// handleBatch evaluates a multi-query request as concurrent Query
// calls on the conn and streams each item's result back as an
// @SQBatchItem frame the moment it completes, in completion order. A
// failed item gets an error frame; the rest of the batch is unaffected.
// The whole batch costs one admission-gate slot and one HTTP round trip.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, conn client.Conn, tr *obs.Trace, qs []*query.Query) {
	// From here on the response streams: headers go out before any item
	// finishes, so per-item failures are framed in-band, not as statuses.
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	var (
		writeMu  sync.Mutex
		fw       = frameWriters.Get().(*frameWriter)
		docs     int
		writeErr error
	)
	fw.w = w
	defer fw.release()
	ssp := tr.StartSpan("search")
	ssp.SetSource(conn.SourceID())
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q *query.Query) {
			defer wg.Done()
			rr, qerr := client.Ask(r.Context(), conn, q)
			writeMu.Lock()
			defer writeMu.Unlock()
			if writeErr != nil {
				// The connection already broke; nothing more to send.
				return
			}
			if qerr == nil {
				docs += len(rr.Documents)
			}
			writeErr = fw.write(result.AppendBatchItem(fw.buf[:0], i, rr, qerr))
		}(i, q)
	}
	wg.Wait()
	ssp.End(writeErr)
	s.countDocs(ssp, conn.SourceID(), docs)
	s.metrics.Counter(s.names[conn.SourceID()].batchItems).Add(int64(len(qs)))
}
