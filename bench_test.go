// Benchmarks for the experiment index of DESIGN.md: protocol throughput
// (experiment X6) and one bench per experiment mechanism. Run with
//
//	go test -bench=. -benchmem .
package starts_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"starts"
	"starts/internal/corpus"
	"starts/internal/engine"
	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/translate"
)

// benchFleet builds a seeded universe of live sources once per benchmark.
func benchFleet(b *testing.B, numSources, docs int, scorers ...engine.Scorer) []*starts.Source {
	b.Helper()
	if len(scorers) == 0 {
		scorers = []engine.Scorer{engine.TFIDF{}}
	}
	g := corpus.Generate(corpus.Config{Seed: 5, NumSources: numSources, DocsPerSource: docs})
	out := make([]*starts.Source, 0, numSources)
	for i, spec := range g.Sources {
		cfg := engine.NewVectorConfig()
		cfg.Scorer = scorers[i%len(scorers)]
		eng, err := starts.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s, err := starts.NewSource(spec.ID, eng)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range spec.Docs {
			if err := s.Add(d); err != nil {
				b.Fatal(err)
			}
		}
		out = append(out, s)
	}
	return out
}

func benchQuery(b *testing.B, ranking string) *starts.Query {
	b.Helper()
	q := starts.NewQuery()
	r, err := starts.ParseRanking(ranking)
	if err != nil {
		b.Fatal(err)
	}
	q.Ranking = r
	return q
}

// BenchmarkEngineSearch measures single-source query evaluation (the
// substrate cost under every experiment).
func BenchmarkEngineSearch(b *testing.B) {
	srcs := benchFleet(b, 1, 1000)
	q := benchQuery(b, `list((body-of-text "database") (body-of-text "query"))`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srcs[0].Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexing measures document ingestion.
func BenchmarkIndexing(b *testing.B) {
	g := corpus.Generate(corpus.Config{Seed: 6, NumSources: 1, DocsPerSource: 2000})
	docs := g.Sources[0].Docs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := starts.NewVectorEngine()
		if err != nil {
			b.Fatal(err)
		}
		d := docs[i%len(docs)]
		cp := *d
		cp.Linkage = fmt.Sprintf("%s-%d", d.Linkage, i)
		if err := eng.Add(&cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummaryBuild is experiment X1's mechanism: generating a content
// summary from a 1000-document index.
func BenchmarkSummaryBuild(b *testing.B) {
	srcs := benchFleet(b, 1, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srcs[0].ContentSummary().NumDocs != 1000 {
			b.Fatal("bad summary")
		}
	}
}

// BenchmarkGlossSelect is experiment X2's mechanism: ranking 10 sources
// from their summaries.
func BenchmarkGlossSelect(b *testing.B) {
	srcs := benchFleet(b, 10, 200)
	infos := make([]gloss.SourceInfo, len(srcs))
	for i, s := range srcs {
		infos[i] = gloss.SourceInfo{ID: s.ID(), Summary: s.ContentSummary()}
	}
	q := benchQuery(b, `list((body-of-text "database") (body-of-text "patient"))`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := (gloss.VSum{}).Rank(q, infos); len(got) != 10 {
			b.Fatal("bad rank")
		}
	}
}

// BenchmarkMergeStrategies is experiment X3's mechanism: fusing results
// from three incompatible rankers.
func BenchmarkMergeStrategies(b *testing.B) {
	srcs := benchFleet(b, 3, 300, engine.TFIDF{}, engine.TopK{}, engine.RawTF{})
	q := benchQuery(b, `list((body-of-text "database") (body-of-text "query"))`)
	q.MaxResults = 30
	var inputs []merge.SourceResult
	for _, s := range srcs {
		r, err := s.Search(q)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, merge.SourceResult{
			SourceID: s.ID(), Meta: s.Metadata(), Summary: s.ContentSummary(), Results: r,
		})
	}
	for _, strat := range []merge.Strategy{merge.RawScore{}, merge.Scaled{}, merge.TermStats{}} {
		b.Run(strat.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := strat.Merge(q, inputs); len(got) == 0 {
					b.Fatal("empty merge")
				}
			}
		})
	}
}

// BenchmarkTranslate is experiment X4's mechanism: rewriting a query from
// source metadata.
func BenchmarkTranslate(b *testing.B) {
	srcs := benchFleet(b, 1, 50)
	md := srcs[0].Metadata()
	q := starts.NewQuery()
	f, err := starts.ParseFilter(`((author "Ada") and ((title stem "database") or (body-of-text "query")))`)
	if err != nil {
		b.Fatal(err)
	}
	q.Filter = f
	q.Ranking, _ = starts.ParseRanking(`list((body-of-text "database"))`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sent, _ := translate.ForSource(q, md); sent.Filter == nil {
			b.Fatal("translation lost the filter")
		}
	}
}

// BenchmarkResourceQuery is experiment E4's mechanism: a same-resource
// multi-source query with duplicate elimination.
func BenchmarkResourceQuery(b *testing.B) {
	srcs := benchFleet(b, 3, 200)
	res := starts.NewResource()
	for _, s := range srcs {
		if err := res.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	q := benchQuery(b, `list((body-of-text "database"))`)
	q.Sources = []string{srcs[1].ID(), srcs[2].ID()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Search(srcs[0].ID(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetasearchLocal is X6: the full pipeline (selection,
// translation, fan-out, merging) over in-process sources.
func BenchmarkMetasearchLocal(b *testing.B) {
	srcs := benchFleet(b, 5, 200, engine.TFIDF{}, engine.TopK{})
	ms := starts.NewMetasearcher(starts.MetasearcherOptions{MaxSources: 3})
	for _, s := range srcs {
		ms.Add(starts.NewLocalConn(s, nil))
	}
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		b.Fatal(err)
	}
	q := benchQuery(b, `list((body-of-text "database") (body-of-text "patient"))`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ms.Search(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchCold is the hot-query experiment's baseline: every
// Search runs the full pipeline (selection, translation, fan-out,
// merging), no cache configured. Compare with BenchmarkSearchCached.
func BenchmarkSearchCold(b *testing.B) {
	srcs := benchFleet(b, 5, 200, engine.TFIDF{}, engine.TopK{})
	ms := starts.NewMetasearcher(starts.MetasearcherOptions{MaxSources: 3})
	for _, s := range srcs {
		ms.Add(starts.NewLocalConn(s, nil))
	}
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		b.Fatal(err)
	}
	q := benchQuery(b, `list((body-of-text "database") (body-of-text "patient"))`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ms.Search(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchCached is the same workload with the query cache in
// front: after one warming miss every iteration is a fingerprint
// computation plus a fresh hit, the repeated-query fast path.
func BenchmarkSearchCached(b *testing.B) {
	srcs := benchFleet(b, 5, 200, engine.TFIDF{}, engine.TopK{})
	ms := starts.NewMetasearcher(starts.MetasearcherOptions{
		MaxSources: 3,
		Cache:      starts.NewQueryCache(starts.QueryCacheConfig{TTL: time.Hour}),
	})
	for _, s := range srcs {
		ms.Add(starts.NewLocalConn(s, nil))
	}
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		b.Fatal(err)
	}
	q := benchQuery(b, `list((body-of-text "database") (body-of-text "patient"))`)
	if _, err := ms.Search(ctx, q); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := ms.Search(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(ans.Documents) == 0 {
			b.Fatal("empty cached answer")
		}
	}
}

// BenchmarkSearchWarmed is X10: a restarted metasearcher that replayed
// the previous run's workload serves its first (and every) repeated
// query from cache. Each iteration measures the post-restart serve; the
// one-time replay cost is reported as warm-ns/op.
func BenchmarkSearchWarmed(b *testing.B) {
	srcs := benchFleet(b, 5, 200, engine.TFIDF{}, engine.TopK{})
	newMS := func() *starts.Metasearcher {
		ms := starts.NewMetasearcher(starts.MetasearcherOptions{
			MaxSources: 3,
			Cache:      starts.NewQueryCache(starts.QueryCacheConfig{TTL: time.Hour}),
		})
		for _, s := range srcs {
			ms.Add(starts.NewLocalConn(s, nil))
		}
		return ms
	}
	ctx := context.Background()
	q := benchQuery(b, `list((body-of-text "database") (body-of-text "patient"))`)

	// First life: serve the workload once, record it.
	prev := newMS()
	if err := prev.Harvest(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := prev.Search(ctx, q); err != nil {
		b.Fatal(err)
	}
	workload := prev.Workload()

	// Restart: fresh metasearcher and cache, warmed from the workload.
	ms := newMS()
	if err := ms.Harvest(ctx); err != nil {
		b.Fatal(err)
	}
	warmStart := time.Now()
	stats, err := ms.Warm(ctx, workload, 0)
	if err != nil {
		b.Fatal(err)
	}
	warmElapsed := time.Since(warmStart)
	if stats.Replayed != len(workload) {
		b.Fatalf("warm stats = %+v, want %d replayed", stats, len(workload))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := ms.Search(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(ans.Documents) == 0 {
			b.Fatal("empty warmed answer")
		}
	}
	// ResetTimer clears custom metrics, so the one-time replay cost is
	// reported after the loop.
	b.ReportMetric(float64(warmElapsed.Nanoseconds()), "warm-replay-ns")
}

// BenchmarkFanoutDispatched is X11: concurrent clients issuing the same
// query with the cache bypassed, so every deduplicated wire call is the
// dispatch layer's doing — identical in-flight sub-queries coalesce into
// one batch per source while per-source concurrency stays at its bound
// (the starts_dispatch_inflight gauge; pinned by the core tests). The
// batched fraction of all dispatch submissions is reported as
// batched-ratio.
//
// "local" runs in-process sources, comparable to the sequential
// BenchmarkSearchCold baseline; on few-core machines its wire calls are
// pure CPU and finish before a second search can join, so its ratio can
// round to zero. "wire-latency" adds 2ms of simulated per-call network
// latency — the regime the paper's metasearcher actually operates in —
// where concurrent searches pile onto in-flight calls and per-search
// cost drops well below the per-call latency floor.
func BenchmarkFanoutDispatched(b *testing.B) {
	const wireLatency = 2 * time.Millisecond
	bench := func(b *testing.B, mw []starts.ConnMiddleware) {
		srcs := benchFleet(b, 5, 200, engine.TFIDF{}, engine.TopK{})
		ms := starts.NewMetasearcher(starts.MetasearcherOptions{
			MaxSources:        3,
			SourceConcurrency: 4,
		})
		for _, s := range srcs {
			ms.Add(starts.ChainConn(starts.NewLocalConn(s, nil), mw...))
		}
		ctx := context.Background()
		if err := ms.Harvest(ctx); err != nil {
			b.Fatal(err)
		}
		q := benchQuery(b, `list((body-of-text "database") (body-of-text "patient"))`)
		b.ReportAllocs()
		b.SetParallelism(4)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				ans, err := ms.Search(ctx, q, starts.WithNoCache())
				if err != nil {
					b.Fatal(err)
				}
				if len(ans.Documents) == 0 {
					b.Fatal("empty answer")
				}
			}
		})
		b.StopTimer()
		var submitted, batched int64
		for _, st := range ms.DispatchStats() {
			submitted += st.Submitted
			batched += st.Batched
		}
		if submitted > 0 {
			b.ReportMetric(float64(batched)/float64(submitted), "batched-ratio")
		}
	}
	b.Run("local", func(b *testing.B) { bench(b, nil) })
	b.Run("wire-latency", func(b *testing.B) {
		bench(b, []starts.ConnMiddleware{
			starts.FaultyMiddleware(starts.FaultConfig{Seed: 1, Latency: wireLatency}),
		})
	})
}

// BenchmarkEndToEndHTTP is X6: one query round trip over the HTTP
// transport, including SOIF encoding on both sides.
func BenchmarkEndToEndHTTP(b *testing.B) {
	srcs := benchFleet(b, 1, 500)
	res := starts.NewResource()
	if err := res.Add(srcs[0]); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(nil)
	defer ts.Close()
	ts.Config.Handler = starts.NewServer(res, ts.URL)
	c := starts.NewClient(ts.Client())
	q := benchQuery(b, `list((body-of-text "database"))`)
	q.MaxResults = 10
	ctx := context.Background()
	url := ts.URL + "/sources/" + srcs[0].ID() + "/query"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(ctx, url, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarvestHTTP is X6: harvesting metadata plus summary over HTTP.
func BenchmarkHarvestHTTP(b *testing.B) {
	srcs := benchFleet(b, 2, 300)
	res := starts.NewResource()
	for _, s := range srcs {
		if err := res.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(nil)
	defer ts.Close()
	ts.Config.Handler = starts.NewServer(res, ts.URL)
	ctx := context.Background()
	c := starts.NewClient(ts.Client())
	conns, err := c.Discover(ctx, ts.URL+"/resource")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn := conns[i%len(conns)]
		if _, err := conn.Metadata(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Summary(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleResults is X8's mechanism: producing calibration data.
func BenchmarkSampleResults(b *testing.B) {
	srcs := benchFleet(b, 1, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srcs[0].SampleResults(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrationFit is X8's mechanism: fitting the score map.
func BenchmarkCalibrationFit(b *testing.B) {
	srcs := benchFleet(b, 2, 50, engine.TFIDF{}, engine.TopK{})
	ref, err := srcs[0].SampleResults()
	if err != nil {
		b.Fatal(err)
	}
	smp, err := srcs[1].SampleResults()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit(b, smp, ref)
	}
}
