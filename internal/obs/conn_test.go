package obs

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// stubConn is a minimal client.Conn whose Query returns docs or an error.
type stubConn struct {
	id   string
	docs int
	err  error
}

func (s *stubConn) SourceID() string { return s.id }

func (s *stubConn) Metadata(context.Context) (*meta.SourceMeta, error) {
	return &meta.SourceMeta{SourceID: s.id}, s.err
}

func (s *stubConn) Summary(context.Context) (*meta.ContentSummary, error) {
	return &meta.ContentSummary{}, s.err
}

func (s *stubConn) Sample(context.Context) ([]*source.SampleEntry, error) {
	return nil, s.err
}

func (s *stubConn) Query(context.Context, *query.Query) (*result.Results, error) {
	if s.err != nil {
		return nil, s.err
	}
	return &result.Results{Documents: make([]*result.Document, s.docs)}, nil
}

func TestWrapConnRecordsMetricsAndSpans(t *testing.T) {
	reg := NewRegistry()
	c := WrapConn(&stubConn{id: "cs", docs: 3}, reg)
	if c.SourceID() != "cs" {
		t.Errorf("SourceID = %q", c.SourceID())
	}
	tr := NewTrace(Title("q"))
	sp := tr.StartSpan("query cs")
	ctx := WithSpan(context.Background(), sp)
	if _, err := c.Query(ctx, query.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Metadata(ctx); err != nil {
		t.Fatal(err)
	}
	sp.End(nil)

	if got := reg.Histogram(L("starts_conn_seconds", "source", "cs", "op", "query")).Count(); got != 1 {
		t.Errorf("query calls = %d", got)
	}
	if got := reg.Counter(L("starts_conn_docs_total", "source", "cs")).Value(); got != 3 {
		t.Errorf("docs = %d", got)
	}
	if got := reg.Histogram(L("starts_conn_seconds", "source", "cs", "op", "metadata")).Count(); got != 1 {
		t.Errorf("metadata observations = %d", got)
	}
	ti := tr.Snapshot()
	if hit := ti.Find("conn.query"); hit == nil || hit.Source != "cs" {
		t.Errorf("conn.query span = %+v", hit)
	}
	if hit := ti.Find("conn.metadata"); hit == nil {
		t.Error("conn.metadata span missing")
	}
}

func TestWrapConnCountsErrors(t *testing.T) {
	reg := NewRegistry()
	boom := errors.New("boom")
	c := WrapConn(&stubConn{id: "bad", err: boom}, reg)
	// Bare context: metrics must still record without a span.
	if _, err := c.Query(context.Background(), query.New()); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := reg.Counter(L("starts_conn_errors_total", "source", "bad", "op", "query")).Value(); got != 1 {
		t.Errorf("errors = %d", got)
	}
	if got := reg.Counter(L("starts_conn_docs_total", "source", "bad")).Value(); got != 0 {
		t.Errorf("docs after error = %d", got)
	}
}

func TestWrapConnNilRegistry(t *testing.T) {
	c := WrapConn(&stubConn{id: "cs", docs: 1}, nil)
	if _, err := c.Query(context.Background(), query.New()); err != nil {
		t.Fatal(err)
	}
}

// TestWrapConnQueryAllocBudget pins what the instrumentation costs a
// query in allocations, over the bare in-process call it wraps: the
// metric and span names are built at WrapConn, so a call only looks its
// series up. Measured 1, the span's context (22 when every call built
// its names through L); budget measured + 25 %, rounded up.
func TestWrapConnQueryAllocBudget(t *testing.T) {
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New("alloc", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Add(&index.Document{Linkage: "http://a/1", Title: "Databases", Body: "databases and gardens"}); err != nil {
		t.Fatal(err)
	}
	q := query.New()
	if q.Ranking, err = query.ParseRanking(`list((body-of-text "databases"))`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bare := client.NewLocalConn(src, nil)
	wrapped := WrapConn(bare, NewRegistry())
	run := func(c client.Conn) float64 {
		if _, err := c.Query(ctx, q); err != nil { // warm-up: creates the series
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() { _, _ = c.Query(ctx, q) })
	}
	base, got := run(bare), run(wrapped)
	const budget = 2
	t.Logf("LocalConn.Query %.1f allocs; wrapped %.1f (overhead %.1f, budget %d)", base, got, got-base, budget)
	if got-base > budget {
		t.Errorf("obs.Conn adds %.1f allocations to a query, budget %d", got-base, budget)
	}
}

func TestHandlers(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("starts_searches_total").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "starts_searches_total 1") {
		t.Errorf("/metrics body:\n%s", rec.Body.String())
	}

	ring := NewTraceRing(4)
	rec = httptest.NewRecorder()
	ring.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/last-traces", nil))
	if !strings.Contains(rec.Body.String(), "no traces recorded yet") {
		t.Errorf("empty ring body:\n%s", rec.Body.String())
	}
	tr := NewTrace(Title("query cs"))
	tr.StartSpan("decode").End(nil)
	tr.Finish()
	ring.Add(tr)
	rec = httptest.NewRecorder()
	ring.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/last-traces", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `trace "query cs"`) || !strings.Contains(body, "decode") {
		t.Errorf("ring body:\n%s", body)
	}
}
