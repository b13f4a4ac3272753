// Chain-composition tests live in an external test package: they compose
// the caching, retrying and observing middlewares under the metasearch
// core, and all of those import client (an internal test file would
// cycle).
package client_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/dispatch"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/resilient"
	"starts/internal/result"
	"starts/internal/source"
)

// flakyConn fails its first Query with a retryable error, then succeeds,
// counting every attempt that reaches it.
type flakyConn struct {
	attempts atomic.Int64
}

func (c *flakyConn) SourceID() string { return "S" }
func (c *flakyConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	return &meta.SourceMeta{SourceID: "S"}, nil
}
func (c *flakyConn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	return &meta.ContentSummary{}, nil
}
func (c *flakyConn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	return nil, nil
}
func (c *flakyConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	if c.attempts.Add(1) == 1 {
		return nil, errors.New("transient network failure")
	}
	return &result.Results{}, nil
}

// countingMW counts Query calls passing through its position in a chain.
func countingMW(n *atomic.Int64) client.Middleware {
	return func(c client.Conn) client.Conn { return &countingConn{Conn: c, n: n} }
}

type countingConn struct {
	client.Conn
	n *atomic.Int64
}

func (c *countingConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	c.n.Add(1)
	return c.Conn.Query(ctx, q)
}

// TestChainOrderWithCache pins the composition contract for the caching
// middleware: the cache belongs OUTSIDE the retrier — a retry re-runs
// the source, never re-enters the cache — and INSIDE the observer, so
// cache hits still count into conn metrics. Each chain issues the same
// query twice against a conn whose first attempt fails retryably; the
// layer counters expose where each call was answered.
func TestChainOrderWithCache(t *testing.T) {
	policy := resilient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}

	type counts struct {
		attempts     int64 // queries reaching the source
		cacheEntries int64 // queries entering the cache layer
		observed     int64 // queries the observer saw
	}
	cases := []struct {
		name string
		// order lists middlewares innermost-first, client.Chain-style,
		// with a counter planted just outside the cache layer.
		order func(cacheMW, countMW, retryMW, observeMW client.Middleware) []client.Middleware
		want  counts
	}{
		{
			// observe(count(cache(retry(conn)))): the recommended order.
			// Call 1 misses and retries inside one cache entry; call 2 is
			// a hit and still reaches the observer.
			name: "cache-outside-retry-inside-observe",
			order: func(cacheMW, countMW, retryMW, observeMW client.Middleware) []client.Middleware {
				return []client.Middleware{retryMW, cacheMW, countMW, observeMW}
			},
			want: counts{attempts: 2, cacheEntries: 2, observed: 2},
		},
		{
			// observe(retry(count(cache(conn)))): cache wrongly inside the
			// retrier — the failed first attempt re-enters the cache on
			// retry (3 entries for 2 calls).
			name: "cache-inside-retry",
			order: func(cacheMW, countMW, retryMW, observeMW client.Middleware) []client.Middleware {
				return []client.Middleware{cacheMW, countMW, retryMW, observeMW}
			},
			want: counts{attempts: 2, cacheEntries: 3, observed: 2},
		},
		{
			// count(cache(observe(retry(conn)))): observer wrongly inside
			// the cache — the hit on call 2 never reaches it, so metrics
			// undercount served queries.
			name: "observe-inside-cache",
			order: func(cacheMW, countMW, retryMW, observeMW client.Middleware) []client.Middleware {
				return []client.Middleware{retryMW, observeMW, cacheMW, countMW}
			},
			want: counts{attempts: 2, cacheEntries: 2, observed: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &flakyConn{}
			reg := obs.NewRegistry()
			cache := qcache.New(qcache.Config{Metrics: reg})
			var cacheEntries atomic.Int64
			cacheMW := func(c client.Conn) client.Conn { return qcache.WrapConn(c, cache) }
			retryMW := func(c client.Conn) client.Conn { return resilient.Wrap(c, policy, nil) }
			observeMW := func(c client.Conn) client.Conn { return obs.WrapConn(c, reg) }

			conn := client.Chain(src, tc.order(cacheMW, countingMW(&cacheEntries), retryMW, observeMW)...)
			q := query.New()
			r, err := query.ParseRanking(`list((any "databases"))`)
			if err != nil {
				t.Fatal(err)
			}
			q.Ranking = r
			for i := 0; i < 2; i++ {
				if _, err := conn.Query(context.Background(), q); err != nil {
					t.Fatalf("query %d: %v", i+1, err)
				}
			}
			got := counts{
				attempts:     src.attempts.Load(),
				cacheEntries: cacheEntries.Load(),
				observed:     reg.Counter(obs.L("starts_conn_calls_total", "source", "S", "op", "query")).Value(),
			}
			if got != tc.want {
				t.Errorf("counts = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// wireLeaf is a leaf over a real in-process source, counting the Query
// calls that reach it and the most that ran at once. The first failFirst
// calls fail with a retryable error; the first call parks until release
// closes when release is non-nil, holding the single dispatch worker so
// later searches queue behind it.
type wireLeaf struct {
	client.Conn
	calls, inflight, maxInflight atomic.Int64
	failFirst                    int64
	release                      chan struct{}
	parked                       chan struct{}
	parkOnce                     sync.Once
}

func (l *wireLeaf) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	call := l.calls.Add(1)
	n := l.inflight.Add(1)
	defer l.inflight.Add(-1)
	for {
		old := l.maxInflight.Load()
		if n <= old || l.maxInflight.CompareAndSwap(old, n) {
			break
		}
	}
	if l.release != nil {
		l.parkOnce.Do(func() {
			close(l.parked)
			select {
			case <-l.release:
			case <-ctx.Done():
			}
		})
	}
	if call <= l.failFirst {
		return nil, errors.New("transient network failure")
	}
	return l.Conn.Query(ctx, q)
}

// deployed builds the only arrangement there is now: a metasearcher
// whose own dispatcher sits over the recommended chain
// observe(cache(retry(leaf))).
func deployed(t *testing.T, leaf *wireLeaf, reg *obs.Registry, cache *qcache.Cache) *core.Metasearcher {
	t.Helper()
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New("S", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&index.Document{
		Linkage: "http://s/1", Title: "everything",
		Body: "databases decoy alpha beta gamma",
	}); err != nil {
		t.Fatal(err)
	}
	leaf.Conn = client.NewLocalConn(s, nil)
	policy := resilient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}
	ms := core.New(core.Options{SourceConcurrency: 1, QueueDepth: 16, Metrics: reg, Timeout: 5 * time.Second})
	t.Cleanup(ms.Close)
	ms.Add(client.Chain(leaf,
		func(c client.Conn) client.Conn { return resilient.Wrap(c, policy, nil) },
		func(c client.Conn) client.Conn { return qcache.WrapConn(c, cache) },
		func(c client.Conn) client.Conn { return obs.WrapConn(c, reg) },
	))
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ms
}

func termQuery(t *testing.T, term string) *query.Query {
	t.Helper()
	q := query.New()
	r, err := query.ParseRanking(`list((body-of-text "` + term + `"))`)
	if err != nil {
		t.Fatal(err)
	}
	q.Ranking = r
	return q
}

// queueStat reads S's dispatch counters. The harvest in deployed already
// went through the dispatcher as one submission and one wire call, so
// tests compare against the stat they took before searching.
func queueStat(ms *core.Metasearcher) dispatch.QueueStat {
	for _, st := range ms.DispatchStats() {
		if st.Source == "S" {
			return st
		}
	}
	return dispatch.QueueStat{}
}

func queryCalls(reg *obs.Registry) int64 {
	return reg.Counter(obs.L("starts_conn_calls_total", "source", "S", "op", "query")).Value()
}

// TestDeployedChainOrder pins the order that is deployed: core's
// dispatcher over observe(cache(retry(leaf))). The dispatcher is the only
// layer that queues and coalesces, every layer below it sees one Query
// per distinct sub-query, retries happen inside one cache fill, and a
// cache hit is observed but never reaches the source.
func TestDeployedChainOrder(t *testing.T) {
	ctx := context.Background()

	// Park the single worker on a decoy search, queue three distinct
	// searches behind it, then open the gate: each queued sub-query is its
	// own leaf Query, one at a time on the one worker.
	t.Run("one-leaf-query-per-sub-query", func(t *testing.T) {
		leaf := &wireLeaf{release: make(chan struct{}), parked: make(chan struct{})}
		reg := obs.NewRegistry()
		ms := deployed(t, leaf, reg, qcache.New(qcache.Config{Metrics: reg}))
		base := queueStat(ms)
		var wg sync.WaitGroup
		search := func(term string) {
			defer wg.Done()
			if _, err := ms.Search(ctx, termQuery(t, term)); err != nil {
				t.Errorf("search %q: %v", term, err)
			}
		}
		wg.Add(1)
		go search("decoy")
		select {
		case <-leaf.parked:
		case <-time.After(5 * time.Second):
			t.Fatal("decoy search never reached the leaf")
		}
		for _, term := range []string{"alpha", "beta", "gamma"} {
			wg.Add(1)
			go search(term)
		}
		for deadline := time.Now().Add(5 * time.Second); queueStat(ms).Depth < 3 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(leaf.release)
		wg.Wait()

		if calls, max := leaf.calls.Load(), leaf.maxInflight.Load(); calls != 4 || max != 1 {
			t.Errorf("leaf saw %d queries, at most %d at once; want 4 (decoy + 3), one at a time", calls, max)
		}
		if got := queryCalls(reg); got != 4 {
			t.Errorf("observed query calls = %d, want 4", got)
		}
		if got := queueStat(ms).WireCalls - base.WireCalls; got != 4 {
			t.Errorf("dispatch wire calls = %d, want 4", got)
		}
	})

	// The same search twice against a leaf whose first wire call fails
	// retryably: search 1 misses and retries inside one cache fill,
	// search 2 is a hit the observer still sees and the leaf never does.
	t.Run("retry-inside-fill-hit-skips-source", func(t *testing.T) {
		leaf := &wireLeaf{failFirst: 1}
		reg := obs.NewRegistry()
		cache := qcache.New(qcache.Config{Metrics: reg})
		ms := deployed(t, leaf, reg, cache)
		base := queueStat(ms)
		for i := 0; i < 2; i++ {
			ans, err := ms.Search(ctx, termQuery(t, "databases"))
			if err != nil || len(ans.Documents) != 1 {
				t.Fatalf("search %d = %v, %v; want one document", i+1, ans, err)
			}
		}
		if got := leaf.calls.Load(); got != 2 {
			t.Errorf("leaf queries = %d, want 2 (one failed attempt + its retry; the hit stays out)", got)
		}
		if got := cache.Len(); got != 1 {
			t.Errorf("cache entries = %d, want 1 (the retry did not re-enter the cache)", got)
		}
		if got := queryCalls(reg); got != 2 {
			t.Errorf("observed query calls = %d, want 2 (hits still count)", got)
		}
		if got := queueStat(ms).WireCalls - base.WireCalls; got != 2 {
			t.Errorf("dispatch wire calls = %d, want 2 (one per search)", got)
		}
	})

	// N concurrent identical searches coalesce at the dispatcher into ONE
	// call down the chain — one observation, one cache fill, one leaf
	// wire call.
	t.Run("identical-searches-coalesce-above-the-chain", func(t *testing.T) {
		const callers = 8
		leaf := &wireLeaf{release: make(chan struct{}), parked: make(chan struct{})}
		reg := obs.NewRegistry()
		ms := deployed(t, leaf, reg, qcache.New(qcache.Config{Metrics: reg}))
		base := queueStat(ms)
		errs := make(chan error, callers)
		for i := 0; i < callers; i++ {
			go func() {
				_, err := ms.Search(ctx, termQuery(t, "databases"))
				errs <- err
			}()
		}
		// Release the gate only once all callers sit on the batch: one
		// led, the rest joined while its wire call was parked.
		for deadline := time.Now().Add(5 * time.Second); queueStat(ms).Submitted-base.Submitted < callers && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(leaf.release)
		for i := 0; i < callers; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("caller %d: %v", i, err)
			}
		}
		if got := leaf.calls.Load(); got != 1 {
			t.Errorf("leaf queries = %d, want 1 for %d concurrent identical searches", got, callers)
		}
		if got := queryCalls(reg); got != 1 {
			t.Errorf("observed query calls = %d, want 1", got)
		}
		if got := queueStat(ms).Batched - base.Batched; got != callers-1 {
			t.Errorf("batched = %d, want %d", got, callers-1)
		}
	})
}
