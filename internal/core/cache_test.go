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
	"starts/internal/gloss"
	"starts/internal/index"
	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// blockingConn counts Query fan-outs and optionally parks each one on a
// gate, so tests can hold a fill in flight while other callers arrive; a
// gate's error fails the query.
type blockingConn struct {
	client.Conn
	queries atomic.Int64
	gate    func(context.Context) error
}

func (c *blockingConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	c.queries.Add(1)
	if c.gate != nil {
		if err := c.gate(ctx); err != nil {
			return nil, err
		}
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

// TestSearchCoalescesConcurrentQueries: 50 goroutines issuing the same
// query through the cache make exactly one wire call. Each misses and runs
// its own pipeline; their identical sub-queries join one dispatch batch,
// and every caller gets a full answer.
func TestSearchCoalescesConcurrentQueries(t *testing.T) {
	const callers = 50
	reg := obs.NewRegistry()
	ms, conn, _ := cachedFleet(t, qcache.Config{Metrics: reg})
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	batched := reg.Counter(obs.L(obs.MDispatchBatched, "source", "cs"))

	// The one wire call parks until all 49 other sub-queries have joined
	// its batch, so no caller can miss it and start a second call.
	release := make(chan struct{})
	conn.gate = func(context.Context) error { <-release; return nil }
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for batched.Value() < callers-1 && time.Now().Before(deadline) {
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
		if answers[i] == nil || len(answers[i].Documents) == 0 || answers[i].Degraded.Any() {
			t.Fatalf("caller %d: empty or degraded answer", i)
		}
	}
	if got := conn.queries.Load(); got != 1 {
		t.Errorf("source queried %d times, want exactly 1 wire call", got)
	}
	if got := batched.Value(); got != callers-1 {
		t.Errorf("batched = %v, want %d", got, callers-1)
	}
}

// TestCoalescedSearchOutlivesItsLeadersCancellation: a search that gives
// up does not fail the identical searches sharing its wire call. The
// first search leads the batch and is cancelled while the call is on the
// wire; the second, with a live context, still gets a full, undegraded
// answer from that one call.
func TestCoalescedSearchOutlivesItsLeadersCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	ms, conn, _ := cachedFleet(t, qcache.Config{Metrics: reg})
	defer ms.Close()
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	onWire, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	conn.gate = func(context.Context) error {
		once.Do(func() { close(onWire) })
		<-release
		return nil
	}
	q := rankingQuery(t, `list((body-of-text "databases"))`)

	lctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := ms.Search(lctx, q)
		leader <- err
	}()
	<-onWire
	follower := make(chan *Answer, 1)
	go func() {
		ans, err := ms.Search(context.Background(), q)
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		follower <- ans
	}()
	joined := reg.Counter(obs.L(obs.MDispatchBatched, "source", "cs"))
	for deadline := time.Now().Add(5 * time.Second); joined.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the follower never joined the leader's wire call")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Errorf("leader = %v, want its own cancellation", err)
	}
	close(release)
	ans := <-follower
	if ans == nil || len(ans.Documents) == 0 || ans.Degraded.Any() {
		t.Fatalf("follower answer = %+v, want full and undegraded", ans)
	}
	if got := conn.queries.Load(); got != 1 {
		t.Errorf("source queried %d times, want 1 shared wire call", got)
	}
}

// TestSharedCallOutlivesItsLeadersDeadline: a search that joins another's
// wire call halfway through its Timeout keeps the call alive past the
// leader's deadline and gets the answer; unanswered, the call is
// cancelled once the joiner's own deadline passes too.
func TestSharedCallOutlivesItsLeadersDeadline(t *testing.T) {
	// The joiner joins a third of the way through the leader's Timeout:
	// its whole search has two thirds of it to reach the shared call, and
	// its own deadline comes a third of the Timeout after the leader's.
	const timeout, joinAfter = 600 * time.Millisecond, 200 * time.Millisecond
	reg := obs.NewRegistry()
	conn := &blockingConn{Conn: client.NewLocalConn(oneDocSource(t, "cs"), nil)}
	// Each wire call reports reaching the source, then waits for a
	// release or its context's end, which it reports too.
	onWire, release, cancelled := make(chan struct{}, 1), make(chan struct{}, 1), make(chan struct{}, 1)
	conn.gate = func(ctx context.Context) error {
		onWire <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			cancelled <- struct{}{}
			return ctx.Err()
		}
	}
	ms := New(Options{Timeout: timeout, Metrics: reg})
	defer ms.Close()
	ms.Add(conn)
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	joined := reg.Counter(obs.L(obs.MDispatchBatched, "source", "cs"))
	type outcome struct {
		ans *Answer
		err error
	}

	// share starts a search that leads a wire call, joins a second search
	// to it joinAfter into the leader's Timeout and returns once the
	// leader has failed with its deadline while the call stays live.
	share := func(round int64) <-chan outcome {
		t.Helper()
		leader := make(chan error, 1)
		go func() {
			_, err := ms.Search(context.Background(), q)
			leader <- err
		}()
		<-onWire
		time.Sleep(joinAfter)
		joiner := make(chan outcome, 1)
		go func() {
			ans, err := ms.Search(context.Background(), q)
			joiner <- outcome{ans, err}
		}()
		for joined.Value() < round {
			select {
			case err := <-leader:
				t.Fatalf("round %d: joiner too late: the leader ended (%v) before the joiner reached its wire call", round, err)
			default:
				time.Sleep(time.Millisecond)
			}
		}
		if err := <-leader; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: leader = %v, want its deadline", round, err)
		}
		select {
		case <-cancelled:
			t.Fatalf("round %d: the shared call was cancelled at its leader's deadline", round)
		default:
		}
		return joiner
	}

	joiner := share(1)
	release <- struct{}{}
	if o := <-joiner; o.err != nil || len(o.ans.Documents) == 0 || o.ans.Degraded.Any() {
		t.Fatalf("joiner = %+v, %v; want a full, undegraded answer", o.ans, o.err)
	}

	joiner = share(2)
	if o := <-joiner; !errors.Is(o.err, context.DeadlineExceeded) {
		t.Errorf("unanswered joiner = %v, want its deadline", o.err)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("the unanswered call outlived its last waiter's deadline")
	}
	if got := conn.queries.Load(); got != 2 {
		t.Errorf("source queried %d times, want one shared wire call a round", got)
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
	const queueTimeout = qcache.DefaultQueueTimeout
	reg := obs.NewRegistry()
	ms, conn, _ := cachedFleet(t, qcache.Config{MaxInflight: 1, Metrics: reg})

	// Hold the only fill slot with a slow fan-out.
	release := make(chan struct{})
	conn.gate = func(context.Context) error { <-release; return nil }
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

	// A second query must be shed, promptly.
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

// TestCacheKeySeparatesConfigurations: metasearchers sharing one cache
// over the same sources must not share an entry for the same query when
// their source cap, verification mode, selector or merger differ.
func TestCacheKeySeparatesConfigurations(t *testing.T) {
	ms, conn, cache := cachedFleet(t, qcache.Config{})
	ctx := context.Background()
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	if _, err := ms.Search(ctx, q); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"verification mode": {PostFilter: true},
		"source cap":        {MaxSources: 1},
		"selector":          {Selector: gloss.VMax{}},
		"merger":            {Merger: merge.RoundRobin{}},
	} {
		opts.Timeout, opts.Cache = 5*time.Second, cache
		other := New(opts)
		other.Add(conn)
		if other.CacheKey(q) == ms.CacheKey(q) {
			t.Errorf("%s: the cache key did not change", name)
		}
		before := conn.queries.Load()
		if _, err := other.Search(ctx, q); err != nil {
			t.Fatal(err)
		}
		if got := conn.queries.Load(); got != before+1 {
			t.Errorf("%s: shared the baseline's cache entry (queries %d -> %d)", name, before, got)
		}
		other.Close()
	}
}

// TestCacheStoresNoTrace: the cache holds answers, not the traces of the
// searches that filled them. The filler, a later hit and a stale serve
// each get back a copy that carries their own trace, and the background
// refresh records into none of them.
func TestCacheStoresNoTrace(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(1996, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	ms, conn, cache := cachedFleet(t, qcache.Config{TTL: time.Minute, Metrics: obs.NewRegistry(), Now: clock})
	ctx := context.Background()
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	key := ms.CacheKey(q)
	stored := func() *Answer {
		t.Helper()
		v, ok := cache.Get(key)
		if !ok {
			t.Fatal("no fresh entry under the search's key")
		}
		if ans := v.(*Answer); ans.Trace != nil {
			t.Fatalf("the cache pins a trace: %s", ans.Trace.Snapshot().Tree())
		}
		return v.(*Answer)
	}
	outcome := func(ans *Answer) (string, int) {
		t.Helper()
		ti := ans.Trace.Snapshot()
		sp := ti.Find("cache")
		if sp == nil {
			t.Fatalf("answer's trace has no cache span: %s", ti.Tree())
		}
		v, _ := sp.Attr("outcome")
		return v, ti.SpanCount()
	}

	filled, err := ms.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	entry := stored()
	if entry == filled {
		t.Fatal("the filler got the stored answer itself, not a copy")
	}
	if got, _ := outcome(filled); got != qcache.Filled.String() || filled.Trace.Snapshot().Find("merge") == nil {
		t.Errorf("filler's answer carries outcome %q, want its own full trace", got)
	}
	fillSpans := filled.Trace.Snapshot().SpanCount()

	hit, err := ms.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, spans := outcome(hit); got != qcache.Hit.String() || spans != 1 || hit.Trace == filled.Trace {
		t.Errorf("hit's answer carries outcome %q and %d spans, want its own one-span trace", got, spans)
	}
	if len(hit.Documents) != len(entry.Documents) || stored() != entry {
		t.Error("a hit changed or replaced the stored entry")
	}

	mu.Lock()
	now = now.Add(2 * time.Minute) // expired, inside the stale window
	mu.Unlock()
	stale, err := ms.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for conn.queries.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var refreshed *Answer
	for refreshed == nil && time.Now().Before(deadline) {
		if v, ok := cache.Get(key); ok && v.(*Answer) != entry {
			refreshed = stored()
		}
		time.Sleep(time.Millisecond)
	}
	if refreshed == nil {
		t.Fatal("the background refresh never stored its answer")
	}
	if got, spans := outcome(stale); got != qcache.Stale.String() || spans != 1 {
		t.Errorf("stale serve's trace: outcome %q, %d spans; the refresh must record into no caller's trace", got, spans)
	}
	if got, spans := outcome(filled); got != qcache.Filled.String() || spans != fillSpans {
		t.Errorf("filler's trace changed after it returned: outcome %q, %d spans, had %d", got, spans, fillSpans)
	}
}
