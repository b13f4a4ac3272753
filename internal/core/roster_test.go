package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/meta"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// oneDocSource builds a source holding one document about databases.
func oneDocSource(t *testing.T, id string) *source.Source {
	t.Helper()
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New(id, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&index.Document{Linkage: "http://" + id + "/a", Title: id, Body: "the distributed databases"}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCacheScopeSeparatesFleets: source ids may hold any byte but white
// space, so joining them with a comma gave the fleets {"a,b", "c"} and
// {"a", "b,c"} one cache scope — and one peer-tier key space.
func TestCacheScopeSeparatesFleets(t *testing.T) {
	key := func(ids ...string) string {
		ms := New(Options{})
		defer ms.Close()
		for _, id := range ids {
			ms.Add(client.NewLocalConn(oneDocSource(t, id), nil))
		}
		return ms.CacheKey(rankingQuery(t, `list((body-of-text "databases"))`))
	}
	if key("a,b", "c") == key("a", "b,c") {
		t.Error(`fleets {"a,b","c"} and {"a","b,c"} share a cache scope`)
	}
	if key("a", "b") != key("b", "a") {
		t.Error("registration order changed the cache scope")
	}
	if key("a") == key("a", "b") {
		t.Error("adding a source kept the cache scope")
	}
}

// TestCacheKeyUnderSearchOptions: a search keys under the scope Add built
// from the metasearcher's Options, so a metasearcher built with another
// scope option keys the same query elsewhere.
func TestCacheKeyUnderSearchOptions(t *testing.T) {
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	key := func(opts Options) string {
		ms := New(opts)
		defer ms.Close()
		ms.Add(client.NewLocalConn(oneDocSource(t, "a"), nil))
		return ms.CacheKey(q)
	}
	base := key(Options{MaxSources: 3})
	want := qcache.Keyer{Scope: "search/vGlOSS-Sum(0)/term-stats/3/false/a"}.Key(q)
	if base != want {
		t.Errorf("baseline key %s, want %s", base, want)
	}
	if key(Options{MaxSources: 1}) == base {
		t.Error("a source cap of 1 keyed like the baseline's 3")
	}
	if key(Options{MaxSources: 3, Timeout: time.Minute}) != base { // Timeout is not part of the scope
		t.Error("an option outside the scope changed the key")
	}
}

// swapConn serves a source's metadata with overrides the test flips
// between harvests, and runs a hook inside every query.
type swapConn struct {
	client.Conn
	mu        sync.Mutex
	expires   time.Time
	stopWords []string
	inQuery   func()
}

func (c *swapConn) set(expires time.Time, stopWords []string) {
	c.mu.Lock()
	c.expires, c.stopWords = expires, stopWords
	c.mu.Unlock()
}

func (c *swapConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	md, err := c.Conn.Metadata(ctx)
	if err == nil {
		c.mu.Lock()
		md.DateExpires, md.StopWords = c.expires, c.stopWords
		c.mu.Unlock()
	}
	return md, err
}

func (c *swapConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	if c.inQuery != nil {
		c.inQuery()
	}
	return c.Conn.Query(ctx, q)
}

// TestAnswerTTLFollowsTheRunsHarvest: the answer's cache lifetime comes
// from the metadata it was translated and merged with. The source expires
// in ten minutes when the search starts; while its query is in flight a
// forced re-harvest publishes metadata good for two hours. The answer
// must still leave the cache at ten minutes.
func TestAnswerTTLFollowsTheRunsHarvest(t *testing.T) {
	clk := newTestClock()
	cache := qcache.New(qcache.Config{TTL: time.Minute, TTLCeiling: 24 * time.Hour, StaleFor: -1, Now: clk.now})
	ms := New(Options{Timeout: 5 * time.Second, Cache: cache, Now: clk.now})
	defer ms.Close()
	conn := &swapConn{Conn: client.NewLocalConn(oneDocSource(t, "s"), nil)}
	conn.set(clk.now().Add(10*time.Minute), nil)
	ms.Add(conn)
	ctx := context.Background()
	var once sync.Once
	conn.inQuery = func() {
		once.Do(func() {
			conn.set(clk.now().Add(2*time.Hour), nil)
			if err := ms.harvestOne(ctx, "s"); err != nil {
				t.Errorf("mid-search harvest: %v", err)
			}
		})
	}
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	if _, err := ms.Search(ctx, q); err != nil {
		t.Fatal(err)
	}
	if md, _, _ := ms.Harvested("s"); !md.DateExpires.Equal(clk.now().Add(2 * time.Hour)) {
		t.Fatalf("the mid-search harvest did not publish: expires %v", md.DateExpires)
	}
	key := ms.CacheKey(q)
	clk.advance(9 * time.Minute)
	if _, ok := cache.Get(key); !ok {
		t.Error("the answer left the cache before the ten minutes of the harvest it was built from")
	}
	clk.advance(time.Minute + time.Second)
	if _, ok := cache.Get(key); ok {
		t.Error("the answer outlived the ten minutes of the harvest it was built from")
	}
}

// TestReharvestedStopWordsReachTranslation: what translation compiled for
// one harvest's metadata must not outlive it — after a re-harvest that
// changes the StopWordList, the new list decides what is dropped.
func TestReharvestedStopWordsReachTranslation(t *testing.T) {
	clk := newTestClock()
	ms := New(Options{Timeout: 5 * time.Second, Now: clk.now})
	defer ms.Close()
	conn := &swapConn{Conn: client.NewLocalConn(oneDocSource(t, "s"), nil)}
	conn.set(clk.now().Add(time.Hour), []string{"the"})
	ms.Add(conn)
	ctx := context.Background()
	q := rankingQuery(t, `list((body-of-text "the") (body-of-text "databases"))`)
	dropped := func() string {
		t.Helper()
		ans, err := ms.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		var words string
		for _, term := range ans.PerSource["s"].Report.DroppedTerms {
			words += term.Value.Text + " "
		}
		return words
	}
	if got := dropped(); got != "the " {
		t.Fatalf("first harvest lists \"the\": dropped %q", got)
	}
	conn.set(clk.now().Add(3*time.Hour), []string{"databases"})
	clk.advance(2 * time.Hour) // past the first harvest's DateExpires
	if got := dropped(); got != "databases " {
		t.Errorf("after the re-harvest dropped %q, want the new list's \"databases\"", got)
	}
}
