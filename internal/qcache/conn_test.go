package qcache

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// stubConn is a minimal client.Conn whose freshness metadata and query
// count the tests control.
type stubConn struct {
	id      string
	expires time.Time
	queries atomic.Int64
}

func (s *stubConn) SourceID() string { return s.id }

func (s *stubConn) Metadata(context.Context) (*meta.SourceMeta, error) {
	return &meta.SourceMeta{DateExpires: s.expires}, nil
}

func (s *stubConn) Summary(context.Context) (*meta.ContentSummary, error) {
	return &meta.ContentSummary{}, nil
}

func (s *stubConn) Sample(context.Context) ([]*source.SampleEntry, error) { return nil, nil }

func (s *stubConn) Query(context.Context, *query.Query) (*result.Results, error) {
	s.queries.Add(1)
	return &result.Results{}, nil
}

func connQuery(t *testing.T) *query.Query {
	t.Helper()
	r, err := query.ParseRanking(`list((body-of-text "database"))`)
	if err != nil {
		t.Fatal(err)
	}
	q := query.New()
	q.Ranking = r
	return q
}

// The caching Conn derives each entry's lifetime from the source's own
// DateExpires, not the cache's blanket TTL: with a one-hour Config.TTL
// but a source expiring in ten minutes, the entry dies at ten minutes.
func TestConnEntryTTLFollowsSourceExpiry(t *testing.T) {
	clk := newFakeClock()
	cache := New(Config{TTL: time.Hour, StaleFor: -1, Now: clk.now})
	inner := &stubConn{id: "s1"}
	inner.expires = clk.now().Add(10 * time.Minute)
	conn := WrapConn(inner, cache)
	ctx := context.Background()
	q := connQuery(t)

	// Harvest first, as core does: the pass-through records the dates.
	if _, err := conn.Metadata(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := inner.queries.Load(); got != 1 {
		t.Fatalf("source queried %d times, want 1 (second serve cached)", got)
	}

	// Past the source's expiry but far inside Config.TTL: must refill.
	clk.advance(11 * time.Minute)
	if _, err := conn.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := inner.queries.Load(); got != 2 {
		t.Fatalf("source queried %d times after its DateExpires passed, want 2", got)
	}
}

// Before any harvest — or when the source declares no dates — entries
// fall back to the cache's Config.TTL.
func TestConnEntryTTLFallsBackWithoutMetadata(t *testing.T) {
	clk := newFakeClock()
	cache := New(Config{TTL: time.Hour, StaleFor: -1, Now: clk.now})
	inner := &stubConn{id: "s1"}
	conn := WrapConn(inner, cache)
	ctx := context.Background()
	q := connQuery(t)

	if _, err := conn.Query(ctx, q); err != nil { // no Metadata call yet
		t.Fatal(err)
	}
	clk.advance(30 * time.Minute) // inside Config.TTL
	if _, err := conn.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := inner.queries.Load(); got != 1 {
		t.Fatalf("source queried %d times inside the fallback TTL, want 1", got)
	}
}
