package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
)

// The benchmark sees inside the program only through four shims placed at
// seams the public API already accepts:
//
//	S1 wireConn          innermost conn, under the whole middleware chain
//	S2 delayHandler      http.Handler around each server.Server
//	S3 countingTransport http.RoundTripper under the STARTS client
//	S4 timedStore        qcache.Store inside the answer cache
//
// S2 also injects the WAN delay and is therefore always present on the
// WAN workload; the other three exist only in a traced pass.

// span is one timed interval of one query. Server spans are tied to the
// wire span(s) they served through Call, not Parent: one multiplexed wire
// call can carry sub-queries of several searches.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Query   int64  `json:"query,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced phase began
	EndNS   int64  `json:"end_ns"`
	Call    int64  `json:"call,omitempty"`
}

// wireRec is what S1 saw of the wire call that carried one translated
// sub-query.
type wireRec struct {
	start, end time.Time
	call       int64
	source     string
}

// captured is one traced query kept for the replay measurements.
type captured struct {
	q     *query.Query
	ans   *core.Answer
	order []string // sources in completion order
}

const (
	maxSpanQueries = 2000 // queries whose spans are kept for the trace file
	maxCaptured    = 300  // queries kept for replay
)

// tracer collects everything the shims and the traced loop observe.
// Counters on the per-query path are atomics; the maps and slices sit
// behind mu.
type tracer struct {
	// on gates every shim: off during warm-up, so only the measured
	// phase is observed.
	on    atomic.Bool
	epoch time.Time
	store *timedStore

	ids atomic.Int64

	mu       sync.Mutex
	wires    map[*query.Query]wireRec
	spans    []span
	captured []captured

	// Per-query sums over every traced query.
	queries, noWire, contacted, wireFound, sheds, earlyDocs, totalDocs int64
	preNS, windowNS, postNS, noWireNS                                  int64

	// S1.
	wireCalls, wireItems, wireNS atomic.Int64
	inflightMax                  atomic.Int64
	// S2.
	serverCalls, serverNS, serverTotalNS, flushes atomic.Int64
	// S3.
	httpCalls, reqBytes, respBytes, connsOpened atomic.Int64
	// S4.
	gets, getHits, getNS, puts, putNS atomic.Int64
}

func newTracer() *tracer {
	return &tracer{wires: map[*query.Query]wireRec{}}
}

// start begins observing; call it between phases, with nothing in flight.
func (t *tracer) start() {
	t.epoch = time.Now()
	t.on.Store(true)
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// observe accounts one finished traced search: it joins the answer to the
// wire calls S1 recorded for its translated sub-queries and splits the
// search into before, during and after the wire.
func (t *tracer) observe(q *query.Query, start time.Time, dur time.Duration, ans *core.Answer, order []string, early int) {
	end := start.Add(dur)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	if ans == nil {
		t.noWire++
		t.noWireNS += int64(dur)
		return
	}
	qid := t.ids.Add(1)
	keep := t.queries <= maxSpanQueries
	if keep {
		t.spans = append(t.spans, span{ID: qid, Query: qid, Name: "search", StartNS: t.since(start), EndNS: t.since(end)})
	}
	var first, last time.Time
	for _, id := range ans.Contacted {
		oc := ans.PerSource[id]
		if oc == nil {
			continue
		}
		if isShed(oc.Err) {
			t.sheds++
		}
		rec, ok := t.wires[oc.Sent]
		if !ok {
			continue
		}
		delete(t.wires, oc.Sent)
		t.wireFound++
		if first.IsZero() || rec.start.Before(first) {
			first = rec.start
		}
		if rec.end.After(last) {
			last = rec.end
		}
		if keep {
			t.spans = append(t.spans, span{
				ID: t.ids.Add(1), Parent: qid, Query: qid, Name: "wire " + rec.source,
				StartNS: t.since(rec.start), EndNS: t.since(rec.end), Call: rec.call,
			})
		}
	}
	t.contacted += int64(len(ans.Contacted))
	t.earlyDocs += int64(early)
	t.totalDocs += int64(len(ans.Documents))
	if first.IsZero() {
		// Nothing of this search reached the wire: a cache hit. All of it
		// counts as time before the wire.
		t.noWire++
		t.noWireNS += int64(dur)
	} else {
		t.preNS += int64(first.Sub(start))
		t.windowNS += int64(last.Sub(first))
		t.postNS += int64(end.Sub(last))
	}
	if len(t.captured) < maxCaptured {
		t.captured = append(t.captured, captured{q: q, ans: ans, order: order})
	}
}

// leafConn is what both transports' conns offer; S1 must offer all of it
// again, or the chain above silently downgrades to one call per query.
type leafConn interface {
	client.BatchConn
	client.StreamConn
}

var (
	_ leafConn = (*client.LocalConn)(nil)
	_ leafConn = (*client.HTTPConn)(nil)
)

// wireConn is S1.
type wireConn struct {
	leafConn
	tr       *tracer
	inflight atomic.Int64
}

type callKey struct{}

// call times one wire call carrying qs and files it under each of them.
func (c *wireConn) call(ctx context.Context, qs []*query.Query, do func(context.Context)) {
	if !c.tr.on.Load() {
		do(ctx)
		return
	}
	id := c.tr.ids.Add(1)
	n := c.inflight.Add(1)
	for {
		max := c.tr.inflightMax.Load()
		if n <= max || c.tr.inflightMax.CompareAndSwap(max, n) {
			break
		}
	}
	start := time.Now()
	do(context.WithValue(ctx, callKey{}, id))
	end := time.Now()
	c.inflight.Add(-1)
	c.tr.wireCalls.Add(1)
	c.tr.wireItems.Add(int64(len(qs)))
	c.tr.wireNS.Add(int64(end.Sub(start)))
	rec := wireRec{start: start, end: end, call: id, source: c.SourceID()}
	c.tr.mu.Lock()
	for _, q := range qs {
		c.tr.wires[q] = rec
	}
	c.tr.mu.Unlock()
}

func (c *wireConn) Query(ctx context.Context, q *query.Query) (r *result.Results, err error) {
	c.call(ctx, []*query.Query{q}, func(ctx context.Context) { r, err = c.leafConn.Query(ctx, q) })
	return r, err
}

func (c *wireConn) QueryBatch(ctx context.Context, qs []*query.Query) (rs []*result.Results, errs []error) {
	c.call(ctx, qs, func(ctx context.Context) { rs, errs = c.leafConn.QueryBatch(ctx, qs) })
	return rs, errs
}

func (c *wireConn) QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (r *result.Results, err error) {
	c.call(ctx, []*query.Query{q}, func(ctx context.Context) { r, err = c.leafConn.QueryStream(ctx, q, sink) })
	return r, err
}

// callHeader carries S1's call id across the wire so S2 can name it.
const callHeader = "X-Bench-Call"

// delayHandler is S2: it holds every request for the source's round-trip
// time, then hands it to the real server.
type delayHandler struct {
	next   http.Handler
	delay  time.Duration
	source string
	tr     *tracer
}

type flushCounter struct {
	http.ResponseWriter
	n int64
}

func (w *flushCounter) Flush() {
	w.n++
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *delayHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	time.Sleep(h.delay)
	if h.tr == nil || !h.tr.on.Load() || !strings.Contains(r.URL.Path, "/query") {
		h.next.ServeHTTP(w, r)
		return
	}
	fw := &flushCounter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(fw, r)
	end := time.Now()
	h.tr.serverCalls.Add(1)
	h.tr.serverNS.Add(int64(end.Sub(start)))
	h.tr.serverTotalNS.Add(int64(end.Sub(arrived)))
	h.tr.flushes.Add(fw.n)
	call, _ := strconv.ParseInt(r.Header.Get(callHeader), 10, 64)
	h.tr.mu.Lock()
	if h.tr.queries < maxSpanQueries {
		h.tr.spans = append(h.tr.spans, span{
			ID: h.tr.ids.Add(1), Name: "server " + h.source, Call: call,
			StartNS: h.tr.since(start), EndNS: h.tr.since(end),
		})
	}
	h.tr.mu.Unlock()
}

// countingTransport is S3.
type countingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.base.RoundTrip(req)
	}
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				t.tr.connsOpened.Add(1)
			}
		},
	})
	req = req.Clone(ctx)
	if id, ok := ctx.Value(callKey{}).(int64); ok {
		req.Header.Set(callHeader, strconv.FormatInt(id, 10))
	}
	t.tr.httpCalls.Add(1)
	if req.ContentLength > 0 {
		t.tr.reqBytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.tr.respBytes}
	return resp, nil
}

// timedStore is S4.
type timedStore struct {
	qcache.Store
	tr *tracer
}

func (s *timedStore) Get(key string, now time.Time) (qcache.Entry, bool) {
	if !s.tr.on.Load() {
		return s.Store.Get(key, now)
	}
	start := time.Now()
	e, ok := s.Store.Get(key, now)
	s.tr.getNS.Add(int64(time.Since(start)))
	s.tr.gets.Add(1)
	if ok {
		s.tr.getHits.Add(1)
	}
	return e, ok
}

func (s *timedStore) Put(key string, e qcache.Entry) {
	if !s.tr.on.Load() {
		s.Store.Put(key, e)
		return
	}
	start := time.Now()
	s.Store.Put(key, e)
	s.tr.putNS.Add(int64(time.Since(start)))
	s.tr.puts.Add(1)
}
