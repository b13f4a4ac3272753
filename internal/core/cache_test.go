package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// blockingConn counts Query fan-outs and optionally parks each one on a
// gate, so tests can hold a fill in flight while other callers arrive.
type blockingConn struct {
	client.Conn
	queries atomic.Int64
	gate    func()
}

func (c *blockingConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	c.queries.Add(1)
	if c.gate != nil {
		c.gate()
	}
	return c.Conn.Query(ctx, q)
}

// cachedFleet builds a one-source metasearcher fronted by a query cache
// built from cfg, both recording into cfg.Metrics, returning the counting
// conn so tests can assert how many fan-outs actually reached the source.
func cachedFleet(t *testing.T, cfg qcache.Config) (*Metasearcher, *blockingConn, *qcache.Cache) {
	t.Helper()
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New("cs", eng)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Add(&index.Document{
		Linkage: "http://cs/a", Title: "cs paper a",
		Body: "distributed databases query processing metasearch",
		Date: time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := qcache.New(cfg)
	conn := &blockingConn{Conn: client.NewLocalConn(s, nil)}
	ms := New(Options{Timeout: 5 * time.Second, Cache: cache, Metrics: cfg.Metrics})
	ms.Add(conn)
	return ms, conn, cache
}

// TestSearchCoalescesConcurrentQueries is the acceptance test for
// singleflight coalescing: 50 goroutines issuing the same query produce
// exactly one fan-out; the other 49 are counted as coalesced.
func TestSearchCoalescesConcurrentQueries(t *testing.T) {
	const callers = 50
	reg := obs.NewRegistry()
	ms, conn, _ := cachedFleet(t, qcache.Config{Metrics: reg})
	coalesced := reg.Counter(obs.MQCacheCoalesced)

	// The leader's fan-out parks until all 49 joiners have arrived (each
	// one increments the coalesced counter the moment it joins), so no
	// caller can miss the flight and start a second fan-out.
	release := make(chan struct{})
	conn.gate = func() { <-release }
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for coalesced.Value() < callers-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()

	var wg sync.WaitGroup
	errs := make([]error, callers)
	answers := make([]*Answer, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := rankingQuery(t, `list((body-of-text "databases"))`)
			answers[i], errs[i] = ms.Search(context.Background(), q)
		}(i)
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if answers[i] == nil || len(answers[i].Documents) == 0 {
			t.Fatalf("caller %d: empty answer", i)
		}
	}
	if got := conn.queries.Load(); got != 1 {
		t.Errorf("source queried %d times, want exactly 1 fan-out", got)
	}
	if got := coalesced.Value(); got != callers-1 {
		t.Errorf("%s = %v, want %d", obs.MQCacheCoalesced, got, callers-1)
	}
}

// TestSearchCacheHit: the second identical search is served from cache
// without touching the source, and WithNoCache forces the pipeline.
func TestSearchCacheHit(t *testing.T) {
	reg := obs.NewRegistry()
	ms, conn, _ := cachedFleet(t, qcache.Config{Metrics: reg})
	ctx := context.Background()
	mk := func() *query.Query { return rankingQuery(t, `list((body-of-text "databases"))`) }

	first, err := ms.Search(ctx, mk())
	if err != nil {
		t.Fatal(err)
	}
	second, err := ms.Search(ctx, mk())
	if err != nil {
		t.Fatal(err)
	}
	if got := conn.queries.Load(); got != 1 {
		t.Errorf("source queried %d times across two identical searches, want 1", got)
	}
	if reg.Counter(obs.MQCacheHits).Value() != 1 {
		t.Errorf("%s = %v, want 1", obs.MQCacheHits, reg.Counter(obs.MQCacheHits).Value())
	}
	if second.Degraded.StaleAnswer {
		t.Errorf("fresh hit marked stale")
	}
	if second.Trace == first.Trace {
		t.Errorf("cached answer shares the filling call's trace")
	}

	// WithNoCache bypasses both lookup and store.
	if _, err := ms.Search(ctx, mk(), WithNoCache()); err != nil {
		t.Fatal(err)
	}
	if got := conn.queries.Load(); got != 2 {
		t.Errorf("WithNoCache did not reach the source (queries=%d)", got)
	}
}

// TestSearchStaleWhileRevalidate: past the TTL but inside the stale
// window, Search answers immediately from the expired entry — marked via
// Answer.Degraded.StaleAnswer — while one background refresh runs.
func TestSearchStaleWhileRevalidate(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(1996, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	reg := obs.NewRegistry()
	ms, conn, _ := cachedFleet(t, qcache.Config{TTL: time.Minute, Metrics: reg, Now: clock})
	ctx := context.Background()
	mk := func() *query.Query { return rankingQuery(t, `list((body-of-text "databases"))`) }

	if _, err := ms.Search(ctx, mk()); err != nil {
		t.Fatal(err)
	}
	advance(2 * time.Minute) // expired, but inside the 4×TTL stale window

	ans, err := ms.Search(ctx, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded.StaleAnswer {
		t.Errorf("stale serve not marked: Degraded = %+v", ans.Degraded)
	}
	if !ans.Degraded.Any() {
		t.Errorf("Degraded.Any() = false with StaleAnswer set")
	}
	if reg.Counter(obs.MQCacheStale).Value() != 1 {
		t.Errorf("%s = %v, want 1", obs.MQCacheStale, reg.Counter(obs.MQCacheStale).Value())
	}

	// The background refresh re-runs the pipeline exactly once.
	deadline := time.Now().Add(5 * time.Second)
	for conn.queries.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := conn.queries.Load(); got != 2 {
		t.Fatalf("background refresh did not run (queries=%d)", got)
	}

	// Wait for the refreshed entry to land, then expect a fresh hit.
	var fresh *Answer
	for time.Now().Before(deadline) {
		if fresh, err = ms.Search(ctx, mk()); err != nil {
			t.Fatal(err)
		}
		if !fresh.Degraded.StaleAnswer {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if fresh.Degraded.StaleAnswer {
		t.Errorf("answer still stale after refresh completed")
	}
	if got := conn.queries.Load(); got != 2 {
		t.Errorf("post-refresh search reran the pipeline (queries=%d)", got)
	}
}

// TestSearchShedsUnderOverload: with one fill slot held, a second
// distinct query is rejected with qcache.ErrShed within the queue
// timeout instead of piling up behind the slow fan-out.
func TestSearchShedsUnderOverload(t *testing.T) {
	const queueTimeout = 50 * time.Millisecond
	reg := obs.NewRegistry()
	ms, conn, _ := cachedFleet(t, qcache.Config{
		MaxInflight:  1,
		QueueTimeout: queueTimeout,
		Metrics:      reg,
	})

	// Hold the only fill slot with a slow fan-out.
	release := make(chan struct{})
	conn.gate = func() { <-release }
	slowDone := make(chan error, 1)
	go func() {
		_, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`))
		slowDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for conn.queries.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if conn.queries.Load() == 0 {
		t.Fatal("slow fill never started")
	}

	// A different query cannot coalesce and must be shed, promptly.
	start := time.Now()
	_, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "metasearch"))`))
	elapsed := time.Since(start)
	if !errors.Is(err, qcache.ErrShed) {
		t.Fatalf("overloaded search returned %v, want qcache.ErrShed", err)
	}
	if elapsed > 10*queueTimeout {
		t.Errorf("shed took %v, want within ~%v", elapsed, queueTimeout)
	}
	if got := reg.Counter(obs.MQCacheShed).Value(); got != 1 {
		t.Errorf("%s = %v, want 1", obs.MQCacheShed, got)
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow search failed after release: %v", err)
	}
}

// TestCacheKeySeparatesConfigurations: the same query under a different
// source-cap or verification mode must not share a cache entry.
func TestCacheKeySeparatesConfigurations(t *testing.T) {
	ms, conn, _ := cachedFleet(t, qcache.Config{})
	ctx := context.Background()
	mk := func() *query.Query { return rankingQuery(t, `list((body-of-text "databases"))`) }

	if _, err := ms.Search(ctx, mk()); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Search(ctx, mk(), WithPostFilter(true)); err != nil {
		t.Fatal(err)
	}
	if got := conn.queries.Load(); got != 2 {
		t.Errorf("verification mode shared the unverified cache entry (queries=%d)", got)
	}
	if _, err := ms.Search(ctx, mk(), WithMaxSources(1)); err != nil {
		t.Fatal(err)
	}
	if got := conn.queries.Load(); got != 3 {
		t.Errorf("source cap shared the uncapped cache entry (queries=%d)", got)
	}
}
