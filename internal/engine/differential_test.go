package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"starts/internal/attr"
	"starts/internal/corpus"
	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/text"
)

// diffUniverse is the ranked universe (five topics, one of them Spanish and
// language-tagged) with the fields the generator leaves empty filled in, so
// that every scan field has something to match.
func diffUniverse(perSource int) []*index.Document {
	g := corpus.Generate(corpus.Config{Seed: 11, NumSources: 5, DocsPerSource: perSource, BodyWords: 40})
	var docs []*index.Document
	for _, s := range g.Sources {
		for _, d := range s.Docs {
			cp := *d
			i := len(docs)
			cp.LinkageType = []string{"text/html", "application/postscript", ""}[i%3]
			cp.CrossRefs = []string{fmt.Sprintf("http://refs/%d", i%7)}
			if i%11 == 0 {
				cp.Languages = append(cp.Languages, lang.MustParseTag("fr"))
			}
			docs = append(docs, &cp)
		}
	}
	return docs
}

// diffConfigs are the capability profiles the differential runs under: the
// three scorers on the full vector profile (every modifier, a thesaurus, a
// native handler), the Boolean profile (filter only, unstemmed index, so the
// stem modifier expands), and a case-preserving unstemmed index (fold map).
func diffConfigs() []struct {
	name string
	cfg  Config
} {
	full := func(s Scorer) Config {
		c := NewVectorConfig()
		c.Scorer = s
		c.Mods = append(c.Mods, attr.ModThesaurus)
		c.Thesaurus = text.NewThesaurus([]string{"database", "storage", "tuple"}, []string{"patient", "clinical"})
		c.Native = SubstringNative
		return c
	}
	cased := full(TFIDF{})
	tok, _ := text.LookupTokenizer("Acme-2")
	cased.Analyzer = &text.Analyzer{Tokenizer: tok, Stop: text.EnglishStopWords(), CaseSensitive: true}
	cased.Mods = append(cased.Mods, attr.ModCaseSensitive)
	return []struct {
		name string
		cfg  Config
	}{
		{"tfidf", full(TFIDF{})},
		{"topk", full(TopK{})},
		{"rawtf", full(RawTF{})},
		{"boolean", NewBooleanConfig()},
		{"cased", cased},
	}
}

// requireSameAnswer runs q on both engines and requires one answer: the same
// error, or the same actual query, documents, order, RawScore floats, fields
// and TermStats.
func requireSameAnswer(t *testing.T, cursors, oracle *Engine, q *query.Query, what string) *result.Results {
	t.Helper()
	got, gerr := cursors.Search(q)
	want, werr := oracle.Search(q)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: cursors failed with %v, oracle with %v", what, gerr, werr)
	}
	if gerr != nil {
		return nil
	}
	if len(got.Documents) != len(want.Documents) {
		t.Fatalf("%s: cursors return %d documents, oracle %d", what, len(got.Documents), len(want.Documents))
	}
	for i := range want.Documents {
		if !reflect.DeepEqual(got.Documents[i], want.Documents[i]) {
			t.Fatalf("%s: document %d\ncursors: %+v\noracle:  %+v", what, i, got.Documents[i], want.Documents[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: actual query differs\ncursors: %v / %v\noracle:  %v / %v",
			what, got.ActualFilter, got.ActualRanking, want.ActualFilter, want.ActualRanking)
	}
	return got
}

// diffFilters and diffRankings are the expression shapes of the table; ""
// stands for "no such part".
func diffFilters(docs []*index.Document) []string {
	return []string{
		"",
		// The benchmark's five shapes.
		`(body-of-text "database")`,
		`((body-of-text "database") and (body-of-text "query"))`,
		`((body-of-text "database") or (body-of-text "patient"))`,
		`((body-of-text "database") and-not (body-of-text "query"))`,
		`((body-of-text "database") prox[3,F] (body-of-text "query"))`,
		// Proximity: ordered, any-field on one side and on both, two
		// concrete fields (cannot hold), a phrase operand.
		`((body-of-text "database") prox[2,T] (body-of-text "query"))`,
		`("database" prox[5,F] "query")`,
		`((title "database") prox[3,F] "transaction")`,
		`((title "database") prox[3,F] (body-of-text "query"))`,
		`((body-of-text "database query") prox[6,F] (body-of-text "index"))`,
		// Phrases, one field and any.
		`(body-of-text "database query")`,
		`("database query")`,
		`(title "database transaction")`,
		// Nesting, a dense left side, an empty operand.
		`(((body-of-text "database") or (body-of-text "patient")) and-not ((body-of-text "query") and (body-of-text "index")))`,
		`(((body-of-text "system") and (body-of-text "database")) or (author "Turing"))`,
		`((body-of-text "nosuchword") or (body-of-text "court"))`,
		`((body-of-text "nosuchword") and (body-of-text "court"))`,
		// Expansions.
		`(body-of-text right-truncation "datr")`,
		`(title left-truncation "base")`,
		`(author phonetic "Turring")`,
		`(body-of-text thesaurus "database")`,
		`(body-of-text stem "databases")`,
		`((body-of-text right-truncation "med") and-not (body-of-text stem "patients"))`,
		`((body-of-text thesaurus "database") prox[4,F] (body-of-text right-truncation "qu"))`,
		`(title case-sensitive "Database")`,
		// Language-tagged terms.
		`(body-of-text [es "datos"])`,
		`(body-of-text [en-US "datos"])`,
		`((body-of-text [es "datos"]) prox[8,F] (body-of-text [fr "consulta"]))`,
		// The fields without postings.
		`(date-last-modified > "1994-06-01")`,
		`(date-last-modified <= "1992-03-15")`,
		`(date-last-modified != "1995")`,
		`((date-last-modified >= "1995-01-01") and (body-of-text "database"))`,
		`((body-of-text "database") and-not (date-last-modified < "1995-01-01"))`,
		`((date-last-modified > "1993-01-01") and (linkage-type "text/html"))`,
		`(linkage "` + docs[7].Linkage + `")`,
		`(linkage-type "application/postscript")`,
		`(languages "es")`,
		`((languages "fr") or (languages "es"))`,
		`(cross-reference-linkage "http://refs/3")`,
		`((cross-reference-linkage "http://refs/3") and (body-of-text "court"))`,
		// The native escape hatch.
		`(free-form-text "database")`,
		`((free-form-text "tomato") and-not (body-of-text "soil"))`,
		// Malformed values fail the same way.
		`(date-last-modified > "yesterday")`,
		`((body-of-text "nosuchword") and (languages "!!"))`,
		`((date-last-modified > "1995") prox[2,F] (title "database"))`,
	}
}

func diffRankings() []string {
	return []string{
		"",
		`list((body-of-text "query") (body-of-text "index") (body-of-text "storage"))`,
		`(body-of-text "database")`,
		`list(("database" 0.7) ("query" 0.3))`,
		// Nested operators, which the block-pruned traversal cannot bound.
		`(("database") and ("query"))`,
		`(("database") or ("patient"))`,
		`(("database") and-not ("query"))`,
		`(("database") prox[3,F] ("query"))`,
		`list((("database") and ("query")) ("index" 0.5) (("storage") or ("tuple")))`,
		`list((("database") prox[2,T] ("index")) (("court") and-not ("appeal")))`,
		// Terms that are not one word in a text field.
		`list(("database query") ("index"))`,
		`list((date-last-modified > "1995-01-01") ("database"))`,
		`list((free-form-text "tomato") ("soil" 0.4))`,
		`list((languages "es") (linkage-type "text/html"))`,
		// Expansions, repeats, language tags.
		`list((body-of-text thesaurus "database") (body-of-text right-truncation "qu") (author phonetic "Turring"))`,
		`list(("database") ("database") ("query"))`,
		`list((body-of-text [es "datos"]) (body-of-text [es "consulta"]) (body-of-text "database"))`,
		// Relevance feedback expands into a weighted list.
		`(document-text "transaction recovery locking replication of distributed relational storage")`,
		`(date-last-modified > "never")`,
	}
}

// TestSearchMatchesExhaustive is the differential the cursor evaluator is
// held to: over every filter shape alone and under a ranking, every ranking
// shape alone and under filters, and the answer specification's knobs, an
// engine on the cursors and one on the oracle return the same answer.
func TestSearchMatchesExhaustive(t *testing.T) {
	docs := diffUniverse(300)
	filters, rankings := diffFilters(docs), diffRankings()
	type spec struct {
		name string
		set  func(*query.Query)
	}
	specs := []spec{
		{"default", func(*query.Query) {}},
		{"max 3", func(q *query.Query) { q.MaxResults = 3 }},
		{"max 5000 min 0.2", func(q *query.Query) { q.MaxResults = 5000; q.MinScore = 0.2 }},
		{"by title", func(q *query.Query) {
			q.SortBy = []query.SortKey{{Field: attr.FieldTitle, Ascending: true}}
		}},
		{"by date desc, score asc", func(q *query.Query) {
			q.SortBy = []query.SortKey{{Field: attr.FieldDateLastModified}, {Field: query.ScoreSortField, Ascending: true}}
			q.MaxResults = 40
		}},
		{"by linkage, spanish, stop words kept", func(q *query.Query) {
			q.SortBy = []query.SortKey{{Field: attr.FieldLinkage}}
			q.DefaultLanguage = lang.Spanish
			q.DropStopWords = false
			q.AnswerFields = []attr.Field{attr.FieldAuthor, attr.FieldDateLastModified}
		}},
	}
	for _, c := range diffConfigs() {
		t.Run(c.name, func(t *testing.T) {
			cursors, oracle := rankedEngines(t, c.cfg, docs)
			matched := 0
			run := func(f, r string, s spec) {
				if f == "" && r == "" {
					return
				}
				q := mkQuery(t, f, r)
				s.set(q)
				res := requireSameAnswer(t, cursors, oracle, q, fmt.Sprintf("filter %s ranking %s (%s)", f, r, s.name))
				if res != nil && len(res.Documents) > 0 {
					matched++
				}
			}
			for _, f := range filters {
				run(f, "", specs[0])
				run(f, rankings[1], specs[0])
			}
			for _, r := range rankings {
				for _, f := range filters[:6] {
					run(f, r, specs[0])
				}
			}
			for _, s := range specs[1:] {
				for _, f := range filters[:6] {
					for _, r := range rankings[:9] {
						run(f, r, s)
					}
				}
			}
			// An always-empty table would pass vacuously.
			if matched < 100 {
				t.Errorf("only %d queries of the table returned documents", matched)
			}
		})
	}
}

// fuzzFleet is the fixed 300-document index of FuzzSearchMatchesExhaustive
// under each scorer, built once per process.
var fuzzFleet = sync.OnceValue(func() (pairs [3][2]*Engine) {
	docs := diffUniverse(60)
	for i, c := range diffConfigs()[:3] {
		for j, exhaustive := range []bool{false, true} {
			cfg := c.cfg
			cfg.Exhaustive = exhaustive
			e, err := NewWithDocs(cfg, docs, 2)
			if err != nil {
				panic(err)
			}
			pairs[i][j] = e
		}
	}
	return pairs
})

// FuzzSearchMatchesExhaustive: whatever filter and ranking the parser
// accepts, under whichever scorer and answer specification, the cursors and
// the oracle return the same answer or the same error.
func FuzzSearchMatchesExhaustive(f *testing.F) {
	// The paper's Examples 1–12 and the benchmark's five filter shapes.
	for i, r := range []string{
		"list((body-of-text ``distributed'') (body-of-text ``databases''))",
		"list((``distributed'' 0.7) (``databases'' 0.3))",
		"(``distributed'' and ``databases'')",
		`list((body-of-text "query") (body-of-text "index") (body-of-text "storage"))`,
		`(("database") prox[3,F] ("query"))`,
		"",
	} {
		for j, fl := range []string{
			"((author ``Ullman'') and (title ``databases''))",
			"(title stem ``databases'')",
			"(``digital'' prox[3,T] ``libraries'')",
			"((title ``digital'') prox[1,F] (title ``libraries''))",
			`((title "a") or ((title "b") and-not (any "c")))`,
			`(date-last-modified > "1996-08-01")`,
			`(body-of-text [en-US "behavior"])`,
			`(body-of-text "database")`,
			`((body-of-text "database") and (body-of-text "query"))`,
			`((body-of-text "database") or (body-of-text "patient"))`,
			`((body-of-text "database") and-not (body-of-text "query"))`,
			`((body-of-text "database") prox[3,F] (body-of-text "query"))`,
			"",
		} {
			f.Add(fl, r, uint8(i*13+j))
		}
	}
	f.Fuzz(func(t *testing.T, filter, ranking string, spec uint8) {
		q := query.New()
		q.Filter, _ = query.ParseFilter(filter)
		q.Ranking, _ = query.ParseRanking(ranking)
		if q.Validate() != nil {
			return
		}
		pair := fuzzFleet()[spec%3]
		q.MaxResults = []int{20, 1, 7, 1000}[spec/3%4]
		q.MinScore = []float64{0, 0, 0.3}[spec/12%3]
		q.SortBy = [][]query.SortKey{
			nil, nil,
			{{Field: attr.FieldTitle, Ascending: true}},
			{{Field: attr.FieldDateLastModified}, {Field: query.ScoreSortField}},
		}[spec/36%4]
		requireSameAnswer(t, pair[0], pair[1], q, fmt.Sprintf("filter %q ranking %q spec %d", filter, ranking, spec))
	})
}

// TestSearchAllocBudget pins what a filtered, ranked query may allocate on
// a source the size of the benchmark's big ones, so that a match-set map
// (or a pointer per matched document) coming back fails here and not in the
// next benchmark run. The budgets stand a quarter above what the cursor
// evaluator needs (17.1, 20.4, 19.8 and 13.2 KB in 207, 219, 218 and 191
// objects, nearly all of it the twenty documents returned).
func TestSearchAllocBudget(t *testing.T) {
	g := corpus.Generate(corpus.Config{Seed: 5, NumSources: 1, DocsPerSource: 20000, BodyWords: 40, VocabWords: 2000})
	e, err := NewWithDocs(NewVectorConfig(), g.Sources[0].Docs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Terms from the middle band of the topic's Zipf order, as the
	// benchmark's filtered queries draw them.
	w := g.Topics[0].Words
	term := func(rank int) string { return `(body-of-text "` + w[rank] + `")` }
	ranking := "list(" + term(60) + " " + term(75) + " " + term(90) + ")"
	for _, tc := range []struct {
		op             string
		bytes, objects uint64
	}{
		{"and", 21 << 10, 260},
		{"or", 25 << 10, 275},
		{"and-not", 25 << 10, 275},
		{"prox[3,F]", 16 << 10, 240},
	} {
		q := mkQuery(t, "("+term(55)+" "+tc.op+" "+term(70)+")", ranking)
		res, err := e.Search(q) // once unmeasured: the lazily sorted vocabulary and the like
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Search(q); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%-9s %5d bytes %4d objects, %d documents returned", tc.op, bytes, objects, len(res.Documents))
		if bytes > tc.bytes || objects > tc.objects {
			t.Errorf("filter %s: a search allocated %d bytes in %d objects, budget %d in %d",
				tc.op, bytes, objects, tc.bytes, tc.objects)
		}
	}
}
