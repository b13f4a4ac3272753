package engine

import (
	"sync"
	"testing"

	"starts/internal/corpus"
	"starts/internal/query"
)

// benchEngines lazily builds, per corpus size, one index shared by a
// fast-path engine and an exhaustive-path engine, so the benchmarks
// compare traversal strategies over identical postings. A single-source
// English corpus keeps the collection untagged — the common case the
// scaling claim is about.
var benchEngines = struct {
	mu    sync.Mutex
	cache map[int][2]*Engine // [fast, exhaustive]
}{cache: map[int][2]*Engine{}}

func benchEnginePair(b *testing.B, numDocs int) (fast, slow *Engine) {
	b.Helper()
	benchEngines.mu.Lock()
	defer benchEngines.mu.Unlock()
	if pair, ok := benchEngines.cache[numDocs]; ok {
		return pair[0], pair[1]
	}
	// A 2000-word topic vocabulary approximates the distinct-term growth
	// of real collections at this scale (Heaps' law): the Zipf tail then
	// contains genuinely rare terms, which a 120-word toy vocabulary
	// cannot produce on a million documents.
	g := corpus.Generate(corpus.Config{
		Seed:          29,
		NumSources:    1,
		DocsPerSource: numDocs,
		BodyWords:     40,
		VocabWords:    2000,
	})
	docs := g.Sources[0].Docs
	cfg := NewVectorConfig()
	fastE, err := NewWithDocs(cfg, docs, 0)
	if err != nil {
		b.Fatal(err)
	}
	exCfg := cfg
	exCfg.Exhaustive = true
	slowE := &Engine{cfg: exCfg, ix: fastE.ix}
	benchEngines.cache[numDocs] = [2]*Engine{fastE, slowE}
	return fastE, slowE
}

// benchQuery is the headline selective ranking: one rare topical term
// (Zipf rank 300, ~1% of documents) — the focused lookup shape block
// pruning rewards most, and the common short real-world query. The
// top-k threshold quickly exceeds what the term's ordinary postings
// can contribute, so traversal visits a few frontier-topping blocks
// and skips the rest at block granularity.
func benchQuery(b *testing.B, maxDocs int) *query.Query {
	return rankingQuery(b, maxDocs, `(body-of-text "datratek0x2")`)
}

// benchMixedQuery mixes term selectivities the way longer real queries
// do: one head-of-Zipf term ("database", in ~97% of documents), one
// mid term ("recovery", ~27%) and the rare term. The head term's
// posting walk dominates at both scales, so growth tracks the head
// list; pruning's win here is the absolute gap to the dense and
// exhaustive paths, not the exponent.
func benchMixedQuery(b *testing.B, maxDocs int) *query.Query {
	return rankingQuery(b, maxDocs,
		`list((body-of-text "database") (body-of-text "recovery") (body-of-text "datratek0x2"))`)
}

// benchDenseQuery is the adversarial worst case: three head terms with
// nearly uniform document frequency, so no term's threshold ever rules
// the others out and pruning degrades toward a block-at-a-time scan.
func benchDenseQuery(b *testing.B, maxDocs int) *query.Query {
	return rankingQuery(b, maxDocs,
		`list((body-of-text "database") (body-of-text "distributed") (body-of-text "optimizer"))`)
}

func rankingQuery(b *testing.B, maxDocs int, ranking string) *query.Query {
	b.Helper()
	q := query.New()
	q.MaxResults = maxDocs
	r, err := query.ParseRanking(ranking)
	if err != nil {
		b.Fatal(err)
	}
	q.Ranking = r
	return q
}

func runSearch(b *testing.B, e *Engine, q *query.Query) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Search(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Documents) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkEngineScale measures ranked query latency as the corpus grows
// 10x (100k -> 1m documents) under the block-pruned top-k path, across
// the selectivity spectrum — the headline selective lookup, a mixed
// three-term query, and the dense worst case — with the exhaustive
// score-everything path at 1m as the reference the pruning is judged
// against. The tentpole claim: 10x documents must cost well under 4x
// latency at max-docs=20 on the headline shape.
func BenchmarkEngineScale(b *testing.B) {
	q := benchQuery(b, 20)
	mixed := benchMixedQuery(b, 20)
	dense := benchDenseQuery(b, 20)
	for _, scale := range []struct {
		name string
		n    int
	}{{"100k", 100_000}, {"1m", 1_000_000}} {
		fast, _ := benchEnginePair(b, scale.n)
		b.Run("topk-"+scale.name, func(b *testing.B) { runSearch(b, fast, q) })
		b.Run("topk-mixed-"+scale.name, func(b *testing.B) { runSearch(b, fast, mixed) })
		b.Run("topk-dense-"+scale.name, func(b *testing.B) { runSearch(b, fast, dense) })
	}
	b.Run("exhaustive-mixed-1m", func(b *testing.B) {
		_, slow := benchEnginePair(b, 1_000_000)
		runSearch(b, slow, mixed)
	})
}

// BenchmarkEngineSort isolates the answer-assembly sort on a 1m-entry
// scored set: bounded-heap selection of the top 20 versus the full sort
// the engine previously always ran.
func BenchmarkEngineSort(b *testing.B) {
	fast, _ := benchEnginePair(b, 1_000_000)
	snap := fast.ix.Snapshot()
	defer snap.Close()
	n := snap.NumDocs()
	scored := make([]scoredDoc, n)
	for i := range scored {
		scored[i] = scoredDoc{id: i, score: float64((i * 2654435761) % 1000)}
	}
	keys := []query.SortKey{{Field: query.ScoreSortField}}
	work := make([]scoredDoc, n)
	run := func(b *testing.B, max int) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work, scored)
			sortTop(snap, work, keys, max)
		}
	}
	b.Run("heap-top20-1m", func(b *testing.B) { run(b, 20) })
	b.Run("fullsort-1m", func(b *testing.B) { run(b, 0) })
}
