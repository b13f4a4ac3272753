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

// liveHeap returns the bytes of live heap objects, read after two
// collections: the second frees what sync.Pools kept through the first.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIndexHeapBudget pins what an index keeps per posting — one (field,
// term, document) — and per document, so that either coming back fails
// here and not in the next benchmark run's heap_mb. It builds one
// big-source collection (20 000 documents of 40-word bodies), releases
// the documents it was built from, and then drops the index's linkage map
// and its document storage in turn, reading the heap each time.
//
// What stays is the posting arrays, blocks, term records and vocabulary
// maps: it reads about 8.9 B a posting — 4 B of id, 1 B of frequency,
// about 1.2 B of positions, the rest the blocks, records and maps — and
// the budget leaves room for the run's noise, not for the four arrays and
// 160-byte header each list owned before its field's were packed (about
// 11 B),
// nor for the 4-byte position end offset and 4-byte positions the lists
// held before that (18.1 B). The
// document storage less the documents' text is the record, the token
// count and the side table: it reads about 44 B a document, where a kept
// *Document, its separately allocated strings and its sort keys cost
// about 360.
func TestIndexHeapBudget(t *testing.T) {
	const (
		postingBudget = 9.5  // bytes per posting
		docBudget     = 48.0 // bytes per document beyond its text
	)
	heapDocs(20000, 40, 2000) // the generator's caches, filled before measuring
	start := liveHeap()
	ix, textBytes := func() (*index.Index, int) {
		docs := heapDocs(20000, 40, 2000)
		n := 0
		for _, d := range docs {
			for _, f := range []attr.Field{attr.FieldLinkage, attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText} {
				n += len(d.FieldText(f))
			}
		}
		ix, err := index.Build(text.NewAnalyzer(), docs, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ix, n
	}()
	docs := ix.NumDocs()
	_, postings := index.Postings(ix)
	index.ReleaseLinkages(ix)
	withDocs := liveHeap()
	index.ReleaseDocuments(ix)
	withoutDocs := liveHeap()
	runtime.KeepAlive(ix)

	perPosting := float64(withoutDocs-start) / float64(postings)
	t.Logf("%d postings, %.1f B of heap each", postings, perPosting)
	if perPosting > postingBudget {
		t.Errorf("the index keeps %.1f B per posting, budget %.0f", perPosting, postingBudget)
	}
	perDoc := float64(withDocs-withoutDocs-int64(textBytes)) / float64(docs)
	t.Logf("%d documents, %.0f B of text and %.1f B of heap besides each", docs, float64(textBytes)/float64(docs), perDoc)
	if perDoc > docBudget {
		t.Errorf("the index keeps %.1f B per document beyond its text, budget %.0f", perDoc, docBudget)
	}
}

// indexHeap returns the live bytes of the postings of an index built over
// a collection of one benchmark shape (its linkage map, records, side
// table, token counts and text dropped), and its terms (one per field and
// term) and postings.
func indexHeap(t *testing.T, docs, bodyWords, vocabWords int) (postingsOnly int64, terms, postings int) {
	t.Helper()
	heapDocs(docs, bodyWords, vocabWords) // the generator's caches, filled before measuring
	start := liveHeap()
	ix, err := index.Build(text.NewAnalyzer(), heapDocs(docs, bodyWords, vocabWords), 0)
	if err != nil {
		t.Fatal(err)
	}
	terms, postings = index.Postings(ix)
	index.ReleaseLinkages(ix)
	index.ReleaseDocuments(ix)
	postingsOnly = liveHeap() - start
	runtime.KeepAlive(ix)
	return postingsOnly, terms, postings
}

// TestIndexHeapPerTerm pins what a small source's index keeps per term,
// the fixed cost a fleet of small sources pays once per term per source:
// 500 documents of 80-word bodies over 400-word vocabularies, the cache
// workloads' shape, about 13 postings a term. Build packs every field's
// lists into four shared arrays and keeps a 16-byte record a term, a list
// frontier only for the few lists of two or more blocks: it reads about
// 303 B a term, its postings, block and vocabulary entries included. A
// list that owned its four arrays and a 160-byte header read about 449.
func TestIndexHeapPerTerm(t *testing.T) {
	const budget = 330.0 // bytes per term
	held, terms, postings := indexHeap(t, 500, 80, 400)
	perTerm := float64(held) / float64(terms)
	t.Logf("%d terms, %d postings, %.0f B of heap a term", terms, postings, perTerm)
	if perTerm > budget {
		t.Errorf("the index keeps %.0f B per term, budget %.0f", perTerm, budget)
	}
}

// TestBuildAllocBudget pins what building an index allocates per token
// of the fixed 2 000-document, 80-word collection, four workers: each
// distinct spelling analyzed once per worker and field, tokens that are
// views of the documents' text in per-worker buffers, one token stream a
// worker and field sized from its text, and every posting written once
// into arrays allocated at their exact size. It reads about 0.10; the
// budget fails a return to an arena per term per chunk, grown by append
// (about 0.40), let alone a copy, a stem or a slice per token (about 4.5).
func TestBuildAllocBudget(t *testing.T) {
	const budget = 0.15 // allocations per token
	docs := heapDocs(2000, 80, 400)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err := index.Build(text.NewAnalyzer(), docs, 4)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	tokens := 0
	for id := range ix.NumDocs() {
		tokens += ix.TokenCount(id)
	}
	perToken := float64(after.Mallocs-before.Mallocs) / float64(tokens)
	t.Logf("%d tokens, %.2f allocations each", tokens, perToken)
	if perToken > budget {
		t.Errorf("building the index allocates %.2f times per token, budget %.2f", perToken, budget)
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
