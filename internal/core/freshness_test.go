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

// testClock is a settable shared clock for freshness tests.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(1996, 6, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// freshSource describes one test source's freshness metadata.
type freshSource struct {
	id      string
	changed time.Time
	expires time.Time
}

// freshFleet builds a metasearcher over sources with the given freshness
// metadata, fronted by a cache sharing the fleet's fake clock.
func freshFleet(t *testing.T, clk *testClock, cfg qcache.Config, srcs []freshSource) (*Metasearcher, map[string]*blockingConn) {
	t.Helper()
	cfg.Now = clk.now
	conns := map[string]*blockingConn{}
	ms := New(Options{Timeout: 5 * time.Second, Cache: qcache.New(cfg), Now: clk.now, Metrics: cfg.Metrics})
	for _, fs := range srcs {
		eng, err := engine.New(engine.NewVectorConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := source.New(fs.id, eng)
		if err != nil {
			t.Fatal(err)
		}
		s.Changed, s.Expires = fs.changed, fs.expires
		err = s.Add(&index.Document{
			Linkage: "http://" + fs.id + "/a", Title: fs.id + " paper",
			Body: "distributed databases query processing metasearch",
			Date: time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC),
		})
		if err != nil {
			t.Fatal(err)
		}
		conn := &blockingConn{Conn: client.NewLocalConn(s, nil)}
		conns[fs.id] = conn
		ms.Add(conn)
	}
	return ms, conns
}

// TestAnswerTTLFollowsSourceFreshness is the acceptance table test for
// per-source TTL derivation: answers built from sources with different
// DateExpires/DateChanged get different cache lifetimes — the minimum
// across the contacted fan-out, clamped to [TTLFloor, TTLCeiling] — and
// sources declaring nothing fall back to the cache's Config.TTL.
func TestAnswerTTLFollowsSourceFreshness(t *testing.T) {
	base := newTestClock().now()
	const (
		fallback = time.Minute
		floor    = time.Second
		ceiling  = 24 * time.Hour
	)
	cases := []struct {
		name    string
		sources []freshSource
		want    time.Duration // expected cached-answer lifetime
	}{
		{
			name:    "single source expiry",
			sources: []freshSource{{id: "s1", expires: base.Add(10 * time.Minute)}},
			want:    10 * time.Minute,
		},
		{
			name: "two sources, min expiry wins",
			sources: []freshSource{
				{id: "s1", expires: base.Add(10 * time.Minute)},
				{id: "s2", expires: base.Add(2 * time.Hour)},
			},
			want: 10 * time.Minute,
		},
		{
			name: "heuristic from DateChanged only",
			// Changed 100 minutes ago: a tenth of the age = 10 minutes.
			sources: []freshSource{{id: "s1", changed: base.Add(-100 * time.Minute)}},
			want:    10 * time.Minute,
		},
		{
			name: "already-expired source clamps to the floor",
			sources: []freshSource{
				{id: "s1", expires: base.Add(-time.Hour)},
				{id: "s2", expires: base.Add(2 * time.Hour)},
			},
			want: floor,
		},
		{
			name:    "far-future expiry clamps to the ceiling",
			sources: []freshSource{{id: "s1", expires: base.Add(90 * 24 * time.Hour)}},
			want:    ceiling,
		},
		{
			name:    "no freshness metadata falls back to Config.TTL",
			sources: []freshSource{{id: "s1"}},
			want:    fallback,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newTestClock()
			ms, conns := freshFleet(t, clk, qcache.Config{
				TTL: fallback, TTLFloor: floor, TTLCeiling: ceiling, StaleFor: -1,
			}, tc.sources)
			ctx := context.Background()
			mk := func() *query.Query { return rankingQuery(t, `list((body-of-text "databases"))`) }
			fanouts := func() (n int64) {
				for _, c := range conns {
					n += c.queries.Load()
				}
				return n
			}

			if _, err := ms.Search(ctx, mk()); err != nil {
				t.Fatal(err)
			}
			filled := fanouts()

			// Just inside the expected lifetime: served from cache, no new
			// fan-out.
			clk.advance(tc.want - time.Second/2)
			if _, err := ms.Search(ctx, mk()); err != nil {
				t.Fatal(err)
			}
			if got := fanouts(); got != filled {
				t.Fatalf("fan-out ran inside the %v lifetime (%d -> %d queries)", tc.want, filled, got)
			}
			// Just past it: the entry expired and the pipeline reruns.
			clk.advance(time.Second)
			if _, err := ms.Search(ctx, mk()); err != nil {
				t.Fatal(err)
			}
			if got := fanouts(); got == filled {
				t.Fatalf("fan-out did not rerun past the %v lifetime (still %d queries)", tc.want, got)
			}
		})
	}
}

// TestWarmStartServesFirstRepeatAsHit is the warm-start acceptance test:
// a "restarted" metasearcher (fresh instance, fresh cache, same sources)
// replays the previous run's saved workload and then serves its first
// repeated query as a cache hit, without touching any source.
func TestWarmStartServesFirstRepeatAsHit(t *testing.T) {
	ctx := context.Background()
	srcs := []freshSource{{id: "s1"}, {id: "s2"}}
	mk := func() *query.Query { return rankingQuery(t, `list((body-of-text "databases"))`) }

	// First life: serve some queries, save the workload.
	clk1 := newTestClock()
	ms1, _ := freshFleet(t, clk1, qcache.Config{TTL: time.Hour}, srcs)
	if _, err := ms1.Search(ctx, mk()); err != nil {
		t.Fatal(err)
	}
	if _, err := ms1.Search(ctx, rankingQuery(t, `list((title "metasearch"))`)); err != nil {
		t.Fatal(err)
	}
	workload := ms1.Workload()
	if len(workload) != 2 {
		t.Fatalf("recorded workload has %d entries, want 2", len(workload))
	}

	// Second life: fresh metasearcher and cache over the same sources.
	reg := obs.NewRegistry()
	clk2 := newTestClock()
	ms2, conns2 := freshFleet(t, clk2, qcache.Config{TTL: time.Hour, Metrics: reg}, srcs)
	stats, err := ms2.Warm(ctx, workload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 2 || stats.Errors != 0 {
		t.Fatalf("warm stats = %+v, want 2 replayed, 0 errors", stats)
	}
	fanoutsAfterWarm := conns2["s1"].queries.Load() + conns2["s2"].queries.Load()
	if fanoutsAfterWarm == 0 {
		t.Fatal("warm replay never reached the sources")
	}

	// The first repeated query after the restart is a Hit: no source is
	// touched and the hit counter moves.
	hitsBefore := reg.Counter(obs.MQCacheHits).Value()
	ans, err := ms2.Search(ctx, mk())
	if err != nil {
		t.Fatal(err)
	}
	if got := conns2["s1"].queries.Load() + conns2["s2"].queries.Load(); got != fanoutsAfterWarm {
		t.Fatalf("first post-restart search fanned out (%d -> %d queries), want a pure cache hit",
			fanoutsAfterWarm, got)
	}
	if got := reg.Counter(obs.MQCacheHits).Value(); got != hitsBefore+1 {
		t.Fatalf("hits = %d, want %d (first repeat served as Hit)", got, hitsBefore+1)
	}
	if ans.Degraded.StaleAnswer {
		t.Fatal("warm-started answer marked stale")
	}
	if len(ans.Documents) == 0 {
		t.Fatal("warm-started answer is empty")
	}

	// Re-warming skips everything: every entry is already fresh.
	stats, err = ms2.Warm(ctx, workload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 0 || stats.Skipped != 2 {
		t.Fatalf("second warm stats = %+v, want everything skipped", stats)
	}
}

// failOnceConn fails its first query and answers every later one.
type failOnceConn struct {
	client.Conn
	failed atomic.Bool
}

func (c *failOnceConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	if c.failed.CompareAndSwap(false, true) {
		return nil, errors.New("transient failure")
	}
	return c.Conn.Query(ctx, q)
}

// TestDegradedAnswerCachesForTheFloor: an answer missing a failed source
// is cached for the cache's TTLFloor, not for the hour its sources'
// freshness metadata would give a complete one, so the next caller past
// the floor reaches the recovered source instead of the partial answer.
func TestDegradedAnswerCachesForTheFloor(t *testing.T) {
	clk := newTestClock()
	ms := New(Options{
		Timeout: 5 * time.Second, Now: clk.now,
		Cache: qcache.New(qcache.Config{TTLFloor: time.Second, StaleFor: -1, Now: clk.now}),
	})
	defer ms.Close()
	var conns []client.Conn
	for _, id := range []string{"a", "b"} {
		s := oneDocSource(t, id)
		s.Expires = clk.now().Add(time.Hour)
		conns = append(conns, client.NewLocalConn(s, nil))
	}
	ms.Add(conns[0])
	ms.Add(&failOnceConn{Conn: conns[1]})
	ctx := context.Background()
	q := rankingQuery(t, `list((body-of-text "databases"))`)

	first, err := ms.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Degraded.Failed; len(got) != 1 || got[0] != "b" {
		t.Fatalf("first search failed %v, want [b]", got)
	}
	clk.advance(2 * time.Second)
	var tr obs.Trace
	second, err := ms.Search(ctx, q, WithTrace(&tr))
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := tr.Snapshot().Find("cache").Attr("outcome"); out != qcache.Filled.String() {
		t.Errorf("the search past the floor was served %q, want a new fill", out)
	}
	if len(second.Degraded.Failed) != 0 {
		t.Errorf("the search past the floor failed %v, want the recovered source answering", second.Degraded.Failed)
	}
}
