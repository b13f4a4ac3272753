package obs

import (
	"context"
	"time"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

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
//	starts_conn_docs_total{source}
//
// Every name carries the source id, so they are built once, at WrapConn.
type Conn struct {
	inner client.Conn
	reg   *Registry

	metadata, summary, sample, query connOp
	docs                             string
}

var _ client.Conn = (*Conn)(nil)

// connOp is one operation's span name and metric names.
type connOp struct{ span, calls, errors, seconds string }

func newConnOp(id, op string) connOp {
	return connOp{
		span:    "conn." + op,
		calls:   L("starts_conn_calls_total", "source", id, "op", op),
		errors:  L("starts_conn_errors_total", "source", id, "op", op),
		seconds: L("starts_conn_seconds", "source", id, "op", op),
	}
}

// WrapConn returns an instrumented wrapper around inner recording into
// reg. A nil registry still produces spans; a bare context still records
// metrics — each half degrades independently.
func WrapConn(inner client.Conn, reg *Registry) *Conn {
	id := inner.SourceID()
	return &Conn{
		inner: inner, reg: reg,
		metadata: newConnOp(id, "metadata"), summary: newConnOp(id, "summary"),
		sample: newConnOp(id, "sample"), query: newConnOp(id, "query"),
		docs: L("starts_conn_docs_total", "source", id),
	}
}

// observe runs one instrumented call.
func observe[T any](c *Conn, ctx context.Context, op *connOp, f func(context.Context) (T, error)) (T, error) {
	sp := SpanFrom(ctx).Child(op.span)
	sp.SetSource(c.inner.SourceID())
	start := time.Now()
	v, err := f(WithSpan(ctx, sp))
	elapsed := time.Since(start)
	sp.End(err)
	c.reg.Counter(op.calls).Inc()
	if err != nil {
		c.reg.Counter(op.errors).Inc()
	}
	c.reg.Histogram(op.seconds).Observe(elapsed)
	return v, err
}

// SourceID implements client.Conn.
func (c *Conn) SourceID() string { return c.inner.SourceID() }

// Metadata implements client.Conn.
func (c *Conn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	return observe(c, ctx, &c.metadata, c.inner.Metadata)
}

// Summary implements client.Conn.
func (c *Conn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	return observe(c, ctx, &c.summary, c.inner.Summary)
}

// Sample implements client.Conn.
func (c *Conn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	return observe(c, ctx, &c.sample, c.inner.Sample)
}

// Query implements client.Conn.
func (c *Conn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	res, err := observe(c, ctx, &c.query, func(ctx context.Context) (*result.Results, error) {
		return c.inner.Query(ctx, q)
	})
	if err == nil && res != nil {
		c.reg.Counter(c.docs).Add(int64(len(res.Documents)))
	}
	return res, err
}
