package core

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/corpus"
	"starts/internal/engine"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/source"
)

// coldFleet is the broker the cold-path guard and benchmark search: eight
// in-process sources (three scorers in rotation, one filter-only, one
// ranking-only) behind the observe middleware, three contacted per query,
// a 1 024-entry answer cache in front — the shape of the suite's
// cache-churn workload — and a pool of distinct queries, 30 % filtered.
func coldFleet(tb testing.TB) (*Metasearcher, []*query.Query) {
	tb.Helper()
	conns, pool := coldSources(tb)
	reg := obs.NewRegistry()
	return coldBroker(tb, conns, Options{
		MaxSources: 3, Timeout: 15 * time.Second, Metrics: reg,
		Cache: qcache.New(qcache.Config{MaxEntries: 1024, TTL: time.Hour, Metrics: reg}),
	}), pool
}

// coldSources is coldFleet's eight sources, one conn each, and its query
// pool.
func coldSources(tb testing.TB) ([]client.Conn, []*query.Query) {
	tb.Helper()
	g := corpus.Generate(corpus.Config{Seed: 7, NumSources: 8, DocsPerSource: 300, VocabWords: 400})
	scorers := []engine.Scorer{engine.TFIDF{}, engine.TopK{}, engine.RawTF{}}
	var conns []client.Conn
	for i, spec := range g.Sources {
		cfg := engine.NewVectorConfig()
		cfg.Scorer = scorers[i%3]
		switch i {
		case 6:
			cfg = engine.NewBooleanConfig()
		case 7:
			cfg.QueryParts = meta.PartsRanking
		}
		eng, err := engine.NewWithDocs(cfg, spec.Docs, 0)
		if err != nil {
			tb.Fatal(err)
		}
		src, err := source.New(spec.ID, eng)
		if err != nil {
			tb.Fatal(err)
		}
		conns = append(conns, client.NewLocalConn(src, nil))
	}
	seen := map[string]bool{}
	var pool []*query.Query
	for _, wq := range corpus.Workload(g, corpus.WorkloadConfig{Seed: 7, NumQueries: 6000}) {
		if key := qcache.Canonical(wq.Query); !seen[key] {
			seen[key] = true
			pool = append(pool, wq.Query)
		}
	}
	return conns, pool
}

// coldBroker is a harvested metasearcher under opts over conns, each
// behind the observe middleware.
func coldBroker(tb testing.TB, conns []client.Conn, opts Options) *Metasearcher {
	tb.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	ms := New(opts)
	tb.Cleanup(ms.Close)
	for _, c := range conns {
		ms.Add(obs.WrapConn(c, opts.Metrics))
	}
	if err := ms.Harvest(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return ms
}

// coldSearch answers pool[i]; every call of a run takes a new i, so every
// search misses the cache and runs the five steps.
func coldSearch(tb testing.TB, ms *Metasearcher, pool []*query.Query, i int) {
	if i >= len(pool) {
		tb.Fatalf("query pool of %d exhausted: a repeat would be a cache hit", len(pool))
	}
	if _, err := ms.Search(context.Background(), pool[i]); err != nil {
		tb.Fatal(err)
	}
}

// TestColdSearchAllocBudget bounds what one cache-missing search
// allocates on the broker's side and the sources' together: the measured
// count plus a quarter. `make prof-cold` attributes it by site.
func TestColdSearchAllocBudget(t *testing.T) {
	ms, pool := coldFleet(t)
	const runs = 400
	next := 0
	for ; next < 50; next++ { // lazy set-up: dispatch queues, metric handles
		coldSearch(t, ms, pool, next)
	}
	got := testing.AllocsPerRun(runs, func() {
		coldSearch(t, ms, pool, next)
		next++
	})
	const budget = 218 // 174 measured (208 before translation and the sources' actual queries shared the nodes they left unchanged, 243 before the fan-out's sub-queries shared one deadline, 294 before a trace was one slab and the cache kept no trace, 467 before sources searched out of slabs, 625 before answers were built as slabs, 1 367 before the broker prepared anything ahead), plus a quarter
	t.Logf("cold search: %.0f allocations (budget %d)", got, budget)
	if got > budget {
		t.Errorf("cold search allocates %.0f objects, budget %d", got, budget)
	}
}

// TestColdSearchBytesBudget bounds the bytes one cache-missing search
// allocates, the broker's and the sources' together, as
// TestColdSearchAllocBudget bounds their count: the measured mean plus a
// quarter.
func TestColdSearchBytesBudget(t *testing.T) {
	ms, pool := coldFleet(t)
	const runs = 400
	next := 0
	for ; next < 50; next++ { // lazy set-up: dispatch queues, metric handles
		coldSearch(t, ms, pool, next)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		coldSearch(t, ms, pool, next)
		next++
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	const budget = 42_500 // 34 000 measured (39 250 when every TermStats entry embedded its term), plus a quarter
	t.Logf("cold search: %.0f bytes allocated (budget %d)", got, budget)
	if got > budget {
		t.Errorf("cold search allocates %.0f bytes, budget %d", got, budget)
	}
}

// TestAnswerCacheBytesPerEntry bounds what the answer cache holds for one
// cold search's answer — the merged documents and, through them, the
// sources' answers with their fields and term statistics: the live heap
// after filling entries, less the live heap before, per entry. `make
// prof-cache` attributes it by site.
func TestAnswerCacheBytesPerEntry(t *testing.T) {
	ms, pool := coldFleet(t)
	const entries = 400 // of the cache's 1 024: nothing is evicted
	next := 0
	for ; next < 50; next++ { // lazy set-up: dispatch queues, metric handles
		coldSearch(t, ms, pool, next)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range entries {
		coldSearch(t, ms, pool, next)
		next++
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / entries
	const budget = 6_400 // 5 100 measured (10 350 when every TermStats entry embedded its term), plus a quarter
	t.Logf("answer cache: %.0f bytes held per entry (budget %d)", got, budget)
	if got > budget {
		t.Errorf("the answer cache holds %.0f bytes per entry, budget %d", got, budget)
	}
}

// TestColdSearchAllocsPerSource bounds what one more contacted source
// adds to a cold, uncached search — its translation, its sub-query's
// dispatch and wait, the source's own search and its share of the merge:
// the allocations of a search over three in-process sources, less those
// of the same search over one, halved.
func TestColdSearchAllocsPerSource(t *testing.T) {
	allocs := func(n int) float64 {
		ms := New(Options{})
		defer ms.Close()
		for i := range n {
			ms.Add(client.NewLocalConn(oneDocSource(t, "s"+strconv.Itoa(i)), nil))
		}
		q := rankingQuery(t, `list((body-of-text "databases"))`)
		search := func() {
			ans, err := ms.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Contacted) != n {
				t.Fatalf("contacted %v, want all %d sources", ans.Contacted, n)
			}
		}
		for range 20 { // harvests, dispatch queues, metric handles
			search()
		}
		return testing.AllocsPerRun(400, search)
	}
	got := (allocs(3) - allocs(1)) / 2
	const budget = 38 // 34.5 measured (42.5 when each source's translation and actual query rebuilt every node, 54.5 when each sub-query and its wire call derived a deadline of their own), plus a tenth
	t.Logf("cold search: %.1f allocations per contacted source (budget %d)", got, budget)
	if got > budget {
		t.Errorf("each contacted source adds %.1f allocations, budget %d", got, budget)
	}
}

// TestCacheHitAllocBudget bounds what a search answered from the cache
// allocates: among others the trace, the key, the printed query the
// warm-start workload records and the answer's copy that carries this
// call's trace — the measured count plus a quarter.
func TestCacheHitAllocBudget(t *testing.T) {
	ms, pool := coldFleet(t)
	q := pool[0]
	for i := 0; i < 10; i++ { // the fill, then lazy set-up on the hit path
		if _, err := ms.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(400, func() {
		if _, err := ms.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 9 // 7 measured (8 before the workload recorder stopped printing the query on every serve, 13 before the trace title rendered when read and the span came from the Trace), plus a quarter
	t.Logf("cache hit: %.0f allocations (budget %d)", got, budget)
	if got > budget {
		t.Errorf("a cache hit allocates %.0f objects, budget %d", got, budget)
	}
}

// BenchmarkColdSearch is the cold five-step pipeline plus the cache's
// write path; `make prof-cold` runs it under the allocation profiler.
func BenchmarkColdSearch(b *testing.B) {
	ms, pool := coldFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Past the pool's end the queries repeat; by then the 1 024-entry
		// cache has long evicted them, so they still miss.
		coldSearch(b, ms, pool, i%len(pool))
	}
}

// cacheSink keeps BenchmarkFillCache's broker, and with it the answer
// cache, alive until the heap profile is written.
var cacheSink *Metasearcher

// BenchmarkFillCache answers b.N distinct cold searches into coldFleet's
// answer cache; with -benchtime 1024x it leaves the cache full, as the
// cache-churn workload keeps it. `make prof-cache` profiles what it holds.
func BenchmarkFillCache(b *testing.B) {
	ms, pool := coldFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldSearch(b, ms, pool, i)
	}
	cacheSink = ms
}
