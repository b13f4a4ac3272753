package obs

import (
	"context"
	"strconv"
	"time"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// batchSizeBounds are the bucket bounds of the starts_wire_batch_size
// histogram: counts, not durations (a size n is observed as
// time.Duration(n)).
var batchSizeBounds = []time.Duration{1, 2, 4, 8, 16, 32, 64}

// Conn wraps a source connection with instrumentation: every call opens
// a child span under the context's current span (so per-source fan-out
// spans show the conn-level timing nested inside them) and records
// per-source, per-operation call counts, error counts and latency
// histograms into the registry.
//
// Metric names:
//
//	starts_conn_calls_total{source,op}
//	starts_conn_errors_total{source,op}
//	starts_conn_seconds{source,op} (histogram)
//
// Each QueryBatch observes the wire call once (op "query-batch") plus
// every item's outcome (op "query-item"), and feeds the batch size into
// starts_wire_batch_size — so wire-level multiplexing never becomes an
// observability blind spot: the histogram shows how well drains
// amortize, and the per-item counters keep error rates comparable with
// single Query calls.
type Conn struct {
	inner client.BatchConn
	reg   *Registry
}

var _ client.BatchConn = (*Conn)(nil)

// WrapConn returns an instrumented wrapper around inner recording into
// reg. A nil registry still produces spans; a bare context still records
// metrics — each half degrades independently.
func WrapConn(inner client.Conn, reg *Registry) *Conn {
	return &Conn{inner: client.Batched(inner), reg: reg}
}

// observe runs one instrumented call.
func observe[T any](c *Conn, ctx context.Context, op string, f func(context.Context) (T, error)) (T, error) {
	id := c.inner.SourceID()
	sp := SpanFrom(ctx).Child("conn." + op)
	sp.SetSource(id)
	start := time.Now()
	v, err := f(WithSpan(ctx, sp))
	elapsed := time.Since(start)
	sp.End(err)
	c.reg.Counter(L("starts_conn_calls_total", "source", id, "op", op)).Inc()
	if err != nil {
		c.reg.Counter(L("starts_conn_errors_total", "source", id, "op", op)).Inc()
	}
	c.reg.Histogram(L("starts_conn_seconds", "source", id, "op", op)).Observe(elapsed)
	return v, err
}

// SourceID implements client.Conn.
func (c *Conn) SourceID() string { return c.inner.SourceID() }

// Metadata implements client.Conn.
func (c *Conn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	return observe(c, ctx, "metadata", c.inner.Metadata)
}

// Summary implements client.Conn.
func (c *Conn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	return observe(c, ctx, "summary", c.inner.Summary)
}

// Sample implements client.Conn.
func (c *Conn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	return observe(c, ctx, "sample", c.inner.Sample)
}

// Query implements client.Conn.
func (c *Conn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	res, err := observe(c, ctx, "query", func(ctx context.Context) (*result.Results, error) {
		return c.inner.Query(ctx, q)
	})
	if err == nil && res != nil {
		c.reg.Counter(L("starts_conn_docs_total", "source", c.inner.SourceID())).
			Add(int64(len(res.Documents)))
	}
	return res, err
}

// QueryBatch implements client.BatchConn.
func (c *Conn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	id := c.inner.SourceID()
	sp := SpanFrom(ctx).Child("conn.query-batch")
	sp.SetSource(id)
	sp.Annotate("items", strconv.Itoa(len(qs)))
	start := time.Now()
	results, errs := c.inner.QueryBatch(WithSpan(ctx, sp), qs)
	elapsed := time.Since(start)
	c.reg.Counter(L("starts_conn_calls_total", "source", id, "op", "query-batch")).Inc()
	c.reg.Histogram(L("starts_conn_seconds", "source", id, "op", "query-batch")).Observe(elapsed)
	c.reg.HistogramBuckets(L(MWireBatchSize, "source", id), batchSizeBounds).
		Observe(time.Duration(len(qs)))
	c.reg.Counter(L("starts_conn_calls_total", "source", id, "op", "query-item")).Add(int64(len(qs)))
	var firstErr error
	var docs, failed int64
	for _, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, r := range results {
		if r != nil {
			docs += int64(len(r.Documents))
		}
	}
	if docs > 0 {
		c.reg.Counter(L("starts_conn_docs_total", "source", id)).Add(docs)
	}
	if failed > 0 {
		sp.Annotate("failed_items", strconv.FormatInt(failed, 10))
		c.reg.Counter(L("starts_conn_errors_total", "source", id, "op", "query-item")).Add(failed)
		c.reg.Counter(L("starts_conn_errors_total", "source", id, "op", "query-batch")).Inc()
	}
	sp.End(firstErr)
	return results, errs
}
