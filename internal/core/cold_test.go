package core

import (
	"context"
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
	ms := New(opts)
	tb.Cleanup(ms.Close)
	for _, c := range conns {
		ms.Add(obs.WrapConn(c, ms.Metrics()))
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
	const budget = 584 // 467 measured (625 before answers were built as slabs, 1 367 before the broker prepared anything ahead), plus a quarter
	t.Logf("cold search: %.0f allocations (budget %d)", got, budget)
	if got > budget {
		t.Errorf("cold search allocates %.0f objects, budget %d", got, budget)
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
