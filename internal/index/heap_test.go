package index_test

import (
	"runtime"
	"testing"

	"starts/internal/attr"
	"starts/internal/corpus"
	"starts/internal/index"
	"starts/internal/text"
)

// heapDocs generates one source's documents at a benchmark workload's
// shape.
func heapDocs(docs, bodyWords, vocabWords int) []*index.Document {
	g := corpus.Generate(corpus.Config{Seed: 3, NumSources: 1, DocsPerSource: docs, BodyWords: bodyWords, VocabWords: vocabWords})
	return g.Sources[0].Docs
}

// TestIndexHeapBudget pins what an index keeps per posting — one
// (field, term, document) — so that per-posting storage coming back fails
// here and not in the next benchmark run's heap_mb. It measures HeapAlloc
// growth across building a fixed 2 000-document, 80-word collection (the
// documents themselves made before): the three posting arrays, blocks,
// lists, the vocabulary maps and the per-document counts and sort keys.
// It reads about 29.5 B a posting: the budget leaves room for the run's
// noise, not for a slice header (24 B) or a pointer per posting.
func TestIndexHeapBudget(t *testing.T) {
	const budget = 32.0 // bytes per posting
	docs := heapDocs(2000, 80, 400)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := index.Build(text.NewAnalyzer(), docs, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	postings := 0
	ix.VocabTerms(func(_ attr.Field, _ string, _, docFreq int) { postings += docFreq })
	perPosting := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(postings)
	t.Logf("%d postings, %.1f B of heap each", postings, perPosting)
	if perPosting > budget {
		t.Errorf("the index keeps %.1f B per posting, budget %.0f", perPosting, budget)
	}
	runtime.KeepAlive(ix)
}

// TestBuildAllocBudget pins what building an index allocates per token
// of the fixed 2 000-document, 80-word collection, four workers: each
// distinct spelling analyzed once per worker, tokens that are views of the
// documents' text in per-worker buffers, so what is left is mostly the
// posting arrays' growth. It reads about 0.7; the budget fails a return
// to a copy, a stem or a slice per token (about 4.5).
func TestBuildAllocBudget(t *testing.T) {
	const budget = 1.0 // allocations per token
	docs := heapDocs(2000, 80, 400)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err := index.Build(text.NewAnalyzer(), docs, 4)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	s := ix.Snapshot()
	defer s.Close()
	tokens := 0
	for id := range s.NumDocs() {
		tokens += s.TokenCount(id)
	}
	perToken := float64(after.Mallocs-before.Mallocs) / float64(tokens)
	t.Logf("%d tokens, %.2f allocations each", tokens, perToken)
	if perToken > budget {
		t.Errorf("building the index allocates %.2f times per token, budget %.1f", perToken, budget)
	}
}

// buildSink keeps the last index BenchmarkBuildIndex built alive, so a
// heap profile written after the run (make prof-heap) shows what an index
// holds.
var buildSink *index.Index

// BenchmarkBuildIndex builds one big-source collection: 20 000 documents
// of 40-word bodies over 2 000-word topic vocabularies.
func BenchmarkBuildIndex(b *testing.B) {
	docs := heapDocs(20000, 40, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := index.Build(text.NewAnalyzer(), docs, 0)
		if err != nil {
			b.Fatal(err)
		}
		buildSink = ix
	}
}
