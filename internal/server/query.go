package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
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

var errTooLarge = errors.New("request too large")

// decodeRequest reads a body of at most maxQueryBytes as exactly one
// @SQuery (asJSON, in the JSON encoding). STARTS carries one query per
// request, so a second object is an error. A body past the bound is
// errTooLarge. The decoder, its bounded reader and the object the query
// is read from all come from the soif decoder pool.
func decodeRequest(body io.Reader, asJSON bool) (*query.Query, error) {
	dec := soif.NewDecoder(body)
	defer dec.Release()
	lr := dec.Limit(maxQueryBytes + 1)
	q, err := decodeQuery(dec, lr, asJSON)
	if err != nil {
		// What broke may be the truncation itself; see whether the body
		// overran before calling it malformed.
		_, _ = io.Copy(io.Discard, lr)
	}
	if lr.N <= 0 {
		return nil, errTooLarge
	}
	return q, err
}

// decodeQuery reads the one query of a request body through dec, or, in
// the JSON encoding, whole from body, dec's bounded reader.
func decodeQuery(dec *soif.Decoder, body io.Reader, asJSON bool) (*query.Query, error) {
	var obj *soif.Object
	if asJSON {
		data, err := io.ReadAll(body)
		if err != nil {
			return nil, err
		}
		obj = new(soif.Object)
		if err := obj.UnmarshalJSON(data); err != nil {
			return nil, fmt.Errorf("malformed query object: %w", err)
		}
	} else {
		var err error
		if obj, err = dec.Next(); err == io.EOF {
			return nil, errors.New("empty request: body must carry one @SQuery")
		} else if err != nil {
			return nil, fmt.Errorf("malformed query object: %w", err)
		}
		// A second object would overwrite obj, but then there is no query.
		if err := dec.DecodeInto(obj); err != io.EOF {
			return nil, errors.New("the query route takes one @SQuery per request")
		}
	}
	q, err := query.FromSOIF(obj)
	if err != nil {
		return nil, fmt.Errorf("malformed query: %w", err)
	}
	return q, nil
}

// countDocs records a finished search's size on its span and on /metrics.
func (s *Server) countDocs(sp *obs.Span, source string, docs int) {
	sp.Annotate("docs", strconv.Itoa(docs))
	s.metrics.Counter(s.docNames[source]).Add(int64(docs))
}

// handleQuery answers POST /sources/{id}/query. Queries are the only
// expensive route, so a request first takes one slot of the admission
// gate: a full gate answers 503 within the queue timeout — clients
// should back off and retry (the retry middleware treats 503 as
// temporary). An admitted request records a trace (decode → search →
// encode) into the /debug/last-traces ring. The answer is buffered
// unless the request asks for a stream, so the conn's answer (or its
// failure, as an HTTP status) is known before the response starts.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
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
	tr := obs.NewTrace(s.titles[conn.SourceID()])
	defer func() {
		tr.Finish()
		s.traces.Add(tr)
	}()
	dsp := tr.StartSpan("decode")
	q, err := decodeRequest(r.Body, strings.Contains(r.Header.Get("Content-Type"), JSONContentType))
	dsp.End(err)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	if streamWanted(r) {
		s.streamQuery(w, r, conn, tr, q)
		return
	}
	qsp := tr.StartSpan("search")
	qsp.SetSource(conn.SourceID())
	rr, err := client.Ask(r.Context(), conn, q)
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
	writeSOIF(w, r, data, err)
	esp.End(err)
}

// streamWanted reports whether the request asked for the chunked
// @SQStreamItem response framing. JSON responses stay buffered: the JSON
// rendering is a single document, not a frame stream.
func streamWanted(r *http.Request) bool {
	return queryFlag(r.URL.RawQuery, "stream") && !wantsJSON(r)
}

// queryFlag reports whether key's first value in the raw query is not
// empty — r.URL.Query().Get(key) != "", read off the raw query instead
// of a map of all of it. A pair url.ParseQuery drops (one holding a ';',
// or a bad escape) is skipped here too.
func queryFlag(raw, key string) bool {
	for raw != "" {
		var pair string
		if pair, raw, _ = strings.Cut(raw, "&"); pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(k, "%+") {
			var err error
			if k, err = url.QueryUnescape(k); err != nil {
				continue
			}
		}
		if k != key {
			continue
		}
		// Unescaping never empties a value, but a bad escape drops the pair.
		if strings.Contains(v, "%") {
			if _, err := url.QueryUnescape(v); err != nil {
				continue
			}
		}
		return v != ""
	}
	return false
}

// flushTo pushes buffered response bytes to the client now, when the
// writer supports it.
func flushTo(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// A frameWriter writes each frame of a framed response in one Write, from
// one buffer, and flushes it. frameWriters recycles them, each with its
// sink bound once; one whose buffer grew past 64 KiB is left to the
// collector.
type frameWriter struct {
	w    http.ResponseWriter
	buf  []byte
	sink func(result.StreamItem) error // fw.frame
}

var frameWriters = sync.Pool{New: func() any {
	fw := new(frameWriter)
	fw.sink = fw.frame
	return fw
}}

// frame writes one stream item as its frame.
func (fw *frameWriter) frame(it result.StreamItem) error {
	if it.Final != nil {
		return fw.write(result.AppendStreamFinal(fw.buf[:0], it.Final))
	}
	return fw.write(result.AppendStreamDocs(fw.buf[:0], it.Rank, it.Docs))
}

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
		fw.w, fw.buf = nil, fw.buf[:0]
		frameWriters.Put(fw)
	}
}

// streamQuery answers a ?stream=1 query with @SQStreamItem framing. The
// HTTP preamble (a 200, whatever follows) goes out with the first frame,
// in its one flush: a leaf's whole answer is one write. A
// client.StreamConn drives the frames itself — a core.Broker's each
// rank-stable slice is written and flushed the moment its merge proves it
// final, an in-process source's whole answer is one terminal frame — and
// any other conn yields that one terminal frame once its Query returns. A
// failure, before the first frame or after, is an in-band error frame,
// which result.Parse and the stream decoder both surface as a
// *result.StreamError.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, conn client.Conn, tr *obs.Trace, q *query.Query) {
	w.Header().Set("Content-Type", ContentType)
	fw := frameWriters.Get().(*frameWriter)
	fw.w = w
	defer fw.release()
	qsp := tr.StartSpan("search")
	qsp.SetSource(conn.SourceID())
	var (
		rr  *result.Results
		err error
	)
	if sc, ok := conn.(client.StreamConn); !ok {
		if rr, err = client.Ask(r.Context(), conn, q); err == nil {
			err = fw.sink(result.StreamItem{Final: rr})
		}
	} else if rr, err = sc.QueryStream(r.Context(), q, fw.sink); err == nil && rr == nil {
		err = client.ErrNoResult
	}
	qsp.End(err)
	if err != nil {
		_ = fw.write(result.AppendStreamError(fw.buf[:0], err), nil)
		return
	}
	s.countDocs(qsp, conn.SourceID(), len(rr.Documents))
}
