package engine

import (
	"reflect"
	"testing"

	"starts/internal/corpus"
	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/query"
)

// rankedUniverse flattens a generated multi-topic corpus (including a
// Spanish-tagged source) into one document collection.
func rankedUniverse(t *testing.T) []*index.Document {
	t.Helper()
	g := corpus.Generate(corpus.Config{
		Seed:          11,
		NumSources:    5, // rotates through all topics, incl. Spanish "datos"
		DocsPerSource: 300,
		BodyWords:     40,
	})
	var docs []*index.Document
	for _, s := range g.Sources {
		docs = append(docs, s.Docs...)
	}
	return docs
}

func rankedEngines(t *testing.T, base Config, docs []*index.Document) (fast, slow *Engine) {
	t.Helper()
	mk := func(exhaustive bool) *Engine {
		cfg := base
		cfg.Exhaustive = exhaustive
		e, err := NewWithDocs(cfg, docs, 4)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return mk(false), mk(true)
}

// TestRankedFastPathMatchesExhaustive is the tentpole equivalence
// property: for eligible queries the block-pruned top-k path must return
// exactly what the exhaustive evaluator returns — identical floats,
// identical order, identical term statistics — across all three scorers.
func TestRankedFastPathMatchesExhaustive(t *testing.T) {
	docs := rankedUniverse(t)
	g := corpus.Generate(corpus.Config{Seed: 11, NumSources: 5, DocsPerSource: 300, BodyWords: 40})
	queries := corpus.Workload(g, corpus.WorkloadConfig{
		Seed:           23,
		NumQueries:     60,
		MaxTerms:       3,
		FilterFraction: -1, // pure ranking: the fast path's home turf
		MaxResults:     15,
	})
	scorers := []struct {
		name string
		mk   func() Config
	}{
		{"tfidf", func() Config { c := NewVectorConfig(); c.Scorer = TFIDF{}; return c }},
		{"topk", func() Config { c := NewVectorConfig(); c.Scorer = TopK{}; return c }},
		{"rawtf", func() Config { c := NewVectorConfig(); c.Scorer = RawTF{}; return c }},
	}
	for _, sc := range scorers {
		t.Run(sc.name, func(t *testing.T) {
			fast, slow := rankedEngines(t, sc.mk(), docs)
			for qi, wq := range queries {
				fr, err := fast.Search(wq.Query)
				if err != nil {
					t.Fatalf("query %d fast: %v", qi, err)
				}
				sr, err := slow.Search(wq.Query)
				if err != nil {
					t.Fatalf("query %d slow: %v", qi, err)
				}
				if len(fr.Documents) != len(sr.Documents) {
					t.Fatalf("query %d (%v): fast %d docs, exhaustive %d",
						qi, wq.Terms, len(fr.Documents), len(sr.Documents))
				}
				for di := range fr.Documents {
					fd, sd := fr.Documents[di], sr.Documents[di]
					if fd.RawScore != sd.RawScore {
						t.Fatalf("query %d (%v) doc %d: score %v vs %v",
							qi, wq.Terms, di, fd.RawScore, sd.RawScore)
					}
					if !reflect.DeepEqual(fd.Fields, sd.Fields) {
						t.Fatalf("query %d doc %d: fields %v vs %v", qi, di, fd.Fields, sd.Fields)
					}
					if !reflect.DeepEqual(fd.TermStats, sd.TermStats) {
						t.Fatalf("query %d (%v) doc %d (%s): term stats\nfast: %+v\nslow: %+v",
							qi, wq.Terms, di, fd.Fields["linkage"], fd.TermStats, sd.TermStats)
					}
				}
			}
		})
	}
}

// TestRankedFastPathMatchesExhaustiveWeighted covers explicit unequal
// term weights — the weighted-average branch of the plan builder.
func TestRankedFastPathMatchesExhaustiveWeighted(t *testing.T) {
	docs := rankedUniverse(t)
	fast, slow := rankedEngines(t, NewVectorConfig(), docs)
	rankings := []string{
		"list((\"database\" 0.7) (\"query\" 0.3))",
		"list((\"distributed\" 1) (\"index\" 0.5) (\"storage\" 0.25))",
		"list((\"transaction\" 0.9))",
		"(\"relational\" 0.4)",
	}
	for _, r := range rankings {
		q := mkQuery(t, "", r)
		q.MaxResults = 10
		fr, err := fast.Search(q)
		if err != nil {
			t.Fatalf("%s fast: %v", r, err)
		}
		sr, err := slow.Search(q)
		if err != nil {
			t.Fatalf("%s slow: %v", r, err)
		}
		if !reflect.DeepEqual(fr.Documents, sr.Documents) {
			t.Fatalf("%s: fast path diverges from exhaustive\nfast: %d docs\nslow: %d docs",
				r, len(fr.Documents), len(sr.Documents))
		}
	}
}

// TestRankedFastPathEligibility asserts the block-pruned traversal
// actually engages for the queries the equivalence suite exercises —
// otherwise the suite compares the cursor walk with itself — and leaves
// the shapes it cannot bound to searchCursors. What those shapes answer is
// TestSearchMatchesExhaustive's business.
func TestRankedFastPathEligibility(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	opts := index.LookupOptions{DropStopWords: true, Stop: e.cfg.Analyzer.Stop}
	snap := e.ix.Snapshot()
	defer snap.Close()
	takes := func(q *query.Query, filter, ranking query.Expr) bool {
		_, _, ok := e.rankedFastPath(snap, q, filter, ranking, opts)
		return ok
	}

	eligible := mkQuery(t, "", `list(("databases") ("distributed"))`)
	if !takes(eligible, nil, eligible.Ranking) {
		t.Fatal("flat weighted-term ranking should take the fast path")
	}
	// A filter's match count, not a threshold, bounds the work.
	if takes(eligible, eligible.Ranking, eligible.Ranking) {
		t.Error("query with filter took the fast path")
	}
	// Non-default sort orders need field keys the traversal does not have.
	sorted := mkQuery(t, "", `list(("databases"))`)
	sorted.SortBy = []query.SortKey{{Field: "title", Ascending: true}}
	if takes(sorted, nil, sorted.Ranking) {
		t.Error("field-sorted query took the fast path")
	}
	// Nested operators score non-additively; phrases have no block bounds.
	for _, r := range []string{`(("databases") and ("distributed"))`, `list(("distributed databases"))`} {
		if q := mkQuery(t, "", r); takes(q, nil, q.Ranking) {
			t.Errorf("%s took the fast path", r)
		}
	}
}

// TestRankedFastPathDeclinedShapes runs the shapes the block-pruned
// traversal declines end-to-end. They used to fall back to the exhaustive
// walk; searchCursors evaluates them now and must answer as the oracle does
// (TestSearchMatchesExhaustive has the full table).
func TestRankedFastPathDeclinedShapes(t *testing.T) {
	docs := rankedUniverse(t)
	fast, slow := rankedEngines(t, NewVectorConfig(), docs)
	cases := []struct {
		name            string
		filter, ranking string
	}{
		{"phrase term", "", `("distributed database")`},
		{"and ranking", "", `(("database") and ("query"))`},
		{"filter plus ranking", `("database")`, `list(("query") ("index"))`},
		{"filter only", `("transaction")`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := mkQuery(t, tc.filter, tc.ranking)
			q.MaxResults = 12
			if res := requireSameAnswer(t, fast, slow, q, tc.name); len(res.Documents) == 0 {
				t.Error("no documents returned")
			}
		})
	}
}

// TestRankedFastPathMinScore checks the monotone tail cut: a minimum
// score drops the same suffix on both paths.
func TestRankedFastPathMinScore(t *testing.T) {
	docs := rankedUniverse(t)
	fast, slow := rankedEngines(t, NewVectorConfig(), docs)
	for _, min := range []float64{0.05, 0.2, 0.5, 0.9} {
		q := mkQuery(t, "", `list(("database") ("distributed") ("query"))`)
		q.MaxResults = 20
		q.MinScore = min
		fr, err := fast.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := slow.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fr.Documents, sr.Documents) {
			t.Fatalf("min-score %v: fast %d docs, slow %d docs", min, len(fr.Documents), len(sr.Documents))
		}
		for _, d := range fr.Documents {
			if d.RawScore < min {
				t.Fatalf("min-score %v returned doc scored %v", min, d.RawScore)
			}
		}
	}
}

// TestRankedFastPathLanguageFilter pins equivalence when the query's
// default language must exclude tagged documents: the Spanish source's
// vocabulary under an en-US query, and the same vocabulary once the
// query asks for Spanish.
func TestRankedFastPathLanguageFilter(t *testing.T) {
	docs := rankedUniverse(t)
	fast, slow := rankedEngines(t, NewVectorConfig(), docs)
	for _, langTag := range []string{"", "es"} {
		q := mkQuery(t, "", `list(("datos") ("consulta"))`)
		q.MaxResults = 15
		if langTag != "" {
			q.DefaultLanguage = lang.MustParseTag(langTag)
		}
		fr, err := fast.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := slow.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fr.Documents, sr.Documents) {
			t.Fatalf("lang %q: fast %d docs, slow %d docs", langTag, len(fr.Documents), len(sr.Documents))
		}
		if len(fr.Documents) == 0 {
			t.Fatalf("lang %q: no results for Spanish-topic terms", langTag)
		}
	}
}
