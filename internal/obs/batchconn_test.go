package obs

import (
	"context"
	"errors"
	"testing"

	"starts/internal/query"
	"starts/internal/result"
)

// stubBatchConn is a stubConn that also speaks QueryBatch: item i
// returns i documents, except indexes listed in failAt, which fail.
type stubBatchConn struct {
	stubConn
	failAt map[int]error
}

func (s *stubBatchConn) QueryBatch(_ context.Context, qs []*query.Query) ([]*result.Results, []error) {
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	for i := range qs {
		if err := s.failAt[i]; err != nil {
			errs[i] = err
			continue
		}
		results[i] = &result.Results{Documents: make([]*result.Document, i)}
	}
	return results, errs
}

// TestBatchConnRecordsWireAndItemMetrics pins the batch observability
// contract: one wire-call observation (op "query-batch") feeding the
// starts_wire_batch_size histogram, plus per-item outcomes (op
// "query-item") so error rates stay comparable with single Query calls.
func TestBatchConnRecordsWireAndItemMetrics(t *testing.T) {
	reg := NewRegistry()
	inner := &stubBatchConn{
		stubConn: stubConn{id: "bs"},
		failAt:   map[int]error{1: errors.New("item exploded")},
	}
	c := WrapConn(inner, reg)

	tr := NewTrace("q")
	sp := tr.StartSpan("query bs")
	ctx := WithSpan(context.Background(), sp)
	qs := []*query.Query{query.New(), query.New(), query.New()}
	results, errs := c.QueryBatch(ctx, qs)
	sp.End(nil)
	if len(results) != 3 || len(errs) != 3 {
		t.Fatalf("got %d results, %d errs", len(results), len(errs))
	}
	if errs[1] == nil || errs[0] != nil || errs[2] != nil {
		t.Fatalf("errs = %v, want only item 1 failing", errs)
	}

	// One wire call, observed once at its true size.
	if got := reg.Counter(L("starts_conn_calls_total", "source", "bs", "op", "query-batch")).Value(); got != 1 {
		t.Errorf("query-batch calls = %d, want 1", got)
	}
	h := reg.HistogramBuckets(L(MWireBatchSize, "source", "bs"), batchSizeBounds)
	if got := h.Count(); got != 1 {
		t.Errorf("wire batch size observations = %d, want 1", got)
	}
	if got := reg.Histogram(L("starts_conn_seconds", "source", "bs", "op", "query-batch")).Count(); got != 1 {
		t.Errorf("query-batch seconds observations = %d, want 1", got)
	}

	// Every item shows up individually: 3 calls, 1 error, and the
	// healthy items' documents (0 + 2) counted once.
	if got := reg.Counter(L("starts_conn_calls_total", "source", "bs", "op", "query-item")).Value(); got != 3 {
		t.Errorf("query-item calls = %d, want 3", got)
	}
	if got := reg.Counter(L("starts_conn_errors_total", "source", "bs", "op", "query-item")).Value(); got != 1 {
		t.Errorf("query-item errors = %d, want 1", got)
	}
	if got := reg.Counter(L("starts_conn_errors_total", "source", "bs", "op", "query-batch")).Value(); got != 1 {
		t.Errorf("query-batch errors = %d, want 1 (any failed item marks the call)", got)
	}
	if got := reg.Counter(L("starts_conn_docs_total", "source", "bs")).Value(); got != 2 {
		t.Errorf("docs = %d, want 2", got)
	}

	ti := tr.Snapshot()
	if hit := ti.Find("conn.query-batch"); hit == nil || hit.Source != "bs" {
		t.Errorf("conn.query-batch span = %+v", hit)
	}
}

// TestBatchConnNilRegistry: metrics degrade, the call still works.
func TestBatchConnNilRegistry(t *testing.T) {
	c := WrapConn(&stubBatchConn{stubConn: stubConn{id: "bs"}}, nil)
	results, errs := c.QueryBatch(context.Background(), []*query.Query{query.New()})
	if len(results) != 1 || len(errs) != 1 || errs[0] != nil {
		t.Fatalf("results = %v, errs = %v", results, errs)
	}
}
