package engine

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/text"
)

func testDocs() []*index.Document {
	return []*index.Document{
		{
			Linkage: "http://x/dood.ps",
			Title:   "A Comparison Between Deductive and Object-Oriented Database Systems",
			Authors: []string{"Jeffrey D. Ullman"},
			Body:    "Deductive databases and object-oriented databases compared. Databases everywhere.",
			Date:    time.Date(1995, 6, 1, 0, 0, 0, 0, time.UTC),
		},
		{
			Linkage: "http://x/lagunita.ps",
			Title:   "Database Research: Achievements and Opportunities",
			Authors: []string{"Avi Silberschatz", "Jeff Ullman"},
			Body:    "Distributed databases and distributed systems. Distributed distributed distributed.",
			Date:    time.Date(1996, 9, 15, 0, 0, 0, 0, time.UTC),
		},
		{
			Linkage: "http://x/gloss.ps",
			Title:   "The Effectiveness of GlOSS",
			Authors: []string{"Luis Gravano"},
			Body:    "Text database discovery with compact collection summaries.",
			Date:    time.Date(1994, 5, 20, 0, 0, 0, 0, time.UTC),
		},
	}
}

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testDocs() {
		if err := e.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func mkQuery(t *testing.T, filter, ranking string) *query.Query {
	t.Helper()
	q := query.New()
	var err error
	if filter != "" {
		if q.Filter, err = query.ParseFilter(filter); err != nil {
			t.Fatal(err)
		}
	}
	if ranking != "" {
		if q.Ranking, err = query.ParseRanking(ranking); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Analyzer: text.NewAnalyzer()}); err == nil {
		t.Error("config without scorer accepted")
	}
	if _, err := New(Config{Analyzer: text.NewAnalyzer(), Scorer: TFIDF{}}); err == nil {
		t.Error("config without query parts accepted")
	}
}

func TestVectorSearchRanks(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	q := mkQuery(t, "", `list((body-of-text "distributed") (body-of-text "databases"))`)
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Documents) == 0 {
		t.Fatal("no results")
	}
	// Doc 1 is saturated with both words; it must rank first.
	if res.Documents[0].Linkage() != "http://x/lagunita.ps" {
		t.Errorf("top doc = %s", res.Documents[0].Linkage())
	}
	// Scores are on the TFIDF [0,1) scale and descending.
	prev := 1.0
	for _, d := range res.Documents {
		if d.RawScore < 0 || d.RawScore >= 1 {
			t.Errorf("score %g outside [0,1)", d.RawScore)
		}
		if d.RawScore > prev {
			t.Error("scores not descending")
		}
		prev = d.RawScore
	}
	// TermStats reported with document frequency.
	top := res.Documents[0]
	if s, ok := top.Stat("distributed"); !ok || s.Freq != 5 || s.DocFreq != 1 {
		t.Errorf("distributed stats = %+v, %v", s, ok)
	}
	if s, ok := top.Stat("databases"); !ok || s.DocFreq != 3 {
		t.Errorf("databases stats = %+v, %v", s, ok)
	}
	if top.Count == 0 || top.Size == 0 {
		t.Errorf("DocCount/DocSize missing: %+v", top)
	}
}

// TestPaperExample7 reproduces Example 7: a source that does not support
// ranking expressions ignores them and echoes the actually processed
// query.
func TestPaperExample7(t *testing.T) {
	e := newEngine(t, NewBooleanConfig())
	q := mkQuery(t,
		`((author "Ullman") and (title stem "databases"))`,
		`list((body-of-text "distributed") (body-of-text "databases"))`)
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActualRanking != nil {
		t.Errorf("ranking should be ignored, actual = %s", res.ActualRanking)
	}
	if res.ActualFilter == nil {
		t.Fatal("filter lost")
	}
	if res.ActualFilter.String() != `((author "Ullman") and (title stem "databases"))` {
		t.Errorf("actual filter = %s", res.ActualFilter)
	}
	// Both Ullman docs match (stemmed title match via the stem modifier on
	// this unstemmed engine).
	if len(res.Documents) != 2 {
		t.Errorf("results = %d", len(res.Documents))
	}
	// Unranked results carry zero scores.
	for _, d := range res.Documents {
		if d.RawScore != 0 {
			t.Errorf("boolean result has score %g", d.RawScore)
		}
	}
}

// TestStopWordDroppedFromActualQuery reproduces the Example 8 narrative:
// a term that is entirely stop words at the source vanishes from the
// actual ranking expression.
func TestStopWordDroppedFromActualQuery(t *testing.T) {
	cfg := NewVectorConfig()
	cfg.Analyzer = &text.Analyzer{
		Tokenizer: cfg.Analyzer.Tokenizer,
		Stop:      text.NewStopList("custom", append([]string{"distributed"}, text.EnglishStopWords().Words()...)),
		Stemming:  true,
	}
	e := newEngine(t, cfg)
	q := mkQuery(t, "", `list((body-of-text "distributed") (body-of-text "databases"))`)
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ActualRanking.String(); got != `(body-of-text "databases")` &&
		got != `list((body-of-text "databases"))` {
		t.Errorf("actual ranking = %s", got)
	}
	// With DropStopWords off (the engine allows turning off), the term
	// survives.
	q2 := mkQuery(t, "", `list((body-of-text "distributed") (body-of-text "databases"))`)
	q2.DropStopWords = false
	res2, err := e.Search(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.ActualRanking.String(), "distributed") {
		t.Errorf("actual ranking lost term despite DropStopWords=F: %s", res2.ActualRanking)
	}
}

func TestTurnOffStopWordsUnsupported(t *testing.T) {
	// The Boolean engine cannot turn stop words off; DropStopWords=F is
	// ignored.
	e := newEngine(t, NewBooleanConfig())
	q := mkQuery(t, `(body-of-text "the")`, "")
	q.DropStopWords = false
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActualFilter != nil {
		t.Errorf("stop-word term survived: %s", res.ActualFilter)
	}
}

func TestUnsupportedFieldDropped(t *testing.T) {
	cfg := NewVectorConfig()
	cfg.Fields = []attr.Field{attr.FieldBodyOfText} // no author support
	e := newEngine(t, cfg)
	q := mkQuery(t, `((author "Ullman") and (body-of-text "databases"))`, "")
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActualFilter.String() != `(body-of-text "databases")` {
		t.Errorf("actual filter = %s", res.ActualFilter)
	}
}

func TestUnsupportedModifierStripped(t *testing.T) {
	cfg := NewVectorConfig()
	cfg.Mods = []attr.Modifier{attr.ModEQ} // no phonetic
	e := newEngine(t, cfg)
	q := mkQuery(t, `(author phonetic "Ulman")`, "")
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActualFilter.String() != `(author "Ulman")` {
		t.Errorf("actual filter = %s", res.ActualFilter)
	}
	// The stripped query matches nothing (exact spelling differs).
	if len(res.Documents) != 0 {
		t.Errorf("results = %d", len(res.Documents))
	}
}

func TestIllegalCombinationStripped(t *testing.T) {
	cfg := NewVectorConfig()
	cfg.IllegalCombos = map[attr.Field][]attr.Modifier{attr.FieldAuthor: {attr.ModStem}}
	e := newEngine(t, cfg)
	q := mkQuery(t, `((author stem "Ullman") and (title stem "databases"))`, "")
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	want := `((author "Ullman") and (title stem "databases"))`
	if res.ActualFilter.String() != want {
		t.Errorf("actual filter = %s, want %s", res.ActualFilter, want)
	}
}

func TestAndNotPositiveComponentRequired(t *testing.T) {
	cfg := NewVectorConfig()
	cfg.Fields = []attr.Field{attr.FieldBodyOfText}
	e := newEngine(t, cfg)
	// The positive side uses an unsupported field; the whole and-not
	// collapses rather than leaving a bare negation.
	q := mkQuery(t, `((author "Ullman") and-not (body-of-text "databases"))`, "")
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActualFilter != nil {
		t.Errorf("actual filter = %s, want dropped", res.ActualFilter)
	}
	// With nothing of the query surviving, the result is empty rather
	// than the whole collection.
	if len(res.Documents) != 0 {
		t.Errorf("results = %d, want none", len(res.Documents))
	}
}

func TestFuzzyOperatorSemantics(t *testing.T) {
	// With the RawTF scorer, term weights are term frequencies, making
	// Example 4's arithmetic directly checkable: doc 1 has tf(distributed)=5,
	// tf(databases)=1 in body.
	cfg := NewVectorConfig()
	cfg.Scorer = RawTF{}
	e := newEngine(t, cfg)

	and := mkQuery(t, "", `((body-of-text "distributed") and (body-of-text "databases"))`)
	resAnd, err := e.Search(and)
	if err != nil {
		t.Fatal(err)
	}
	// and = min(5, 1) = 1 for doc 1.
	top := findDoc(t, resAnd, "http://x/lagunita.ps")
	if top.RawScore != 1 {
		t.Errorf("and score = %g, want 1", top.RawScore)
	}

	or := mkQuery(t, "", `((body-of-text "distributed") or (body-of-text "databases"))`)
	resOr, _ := e.Search(or)
	if findDoc(t, resOr, "http://x/lagunita.ps").RawScore != 5 {
		t.Errorf("or score = %g, want 5", findDoc(t, resOr, "http://x/lagunita.ps").RawScore)
	}

	list := mkQuery(t, "", `list((body-of-text "distributed") (body-of-text "databases"))`)
	resList, _ := e.Search(list)
	// list = (5+1)/2 = 3.
	if findDoc(t, resList, "http://x/lagunita.ps").RawScore != 3 {
		t.Errorf("list score = %g, want 3", findDoc(t, resList, "http://x/lagunita.ps").RawScore)
	}

	weighted := mkQuery(t, "", `list(((body-of-text "distributed") 0.7) ((body-of-text "databases") 0.3))`)
	resW, _ := e.Search(weighted)
	// (0.7*5 + 0.3*1) / (0.7+0.3) = 3.8.
	if got := findDoc(t, resW, "http://x/lagunita.ps").RawScore; got != 3.8 {
		t.Errorf("weighted list score = %g, want 3.8", got)
	}

	andnot := mkQuery(t, "", `((body-of-text "distributed") and-not (body-of-text "deductive"))`)
	resAN, _ := e.Search(andnot)
	if findDoc(t, resAN, "http://x/lagunita.ps").RawScore != 5 {
		t.Error("and-not zeroed a clean document")
	}
	for _, d := range resAN.Documents {
		if d.Linkage() == "http://x/dood.ps" && d.RawScore != 0 {
			t.Error("and-not kept a matching-negation document with positive score")
		}
	}
}

func findDoc(t *testing.T, res *result.Results, linkage string) *result.Document {
	t.Helper()
	for _, d := range res.Documents {
		if d.Linkage() == linkage {
			return d
		}
	}
	t.Fatalf("document %s not in results", linkage)
	return nil
}

func TestMinScoreAndMaxResults(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	q := mkQuery(t, "", `list((any "databases"))`)
	q.MaxResults = 1
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Documents) != 1 {
		t.Errorf("MaxNumberDocuments not enforced: %d", len(res.Documents))
	}
	q2 := mkQuery(t, "", `list((any "databases"))`)
	q2.MinScore = 0.9999
	res2, err := e.Search(q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Documents) != 0 {
		t.Errorf("MinDocumentScore not enforced: %d docs", len(res2.Documents))
	}
}

func TestSortBySpecification(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	q := mkQuery(t, `(any "databases")`, "")
	q.SortBy = []query.SortKey{{Field: attr.FieldDateLastModified, Ascending: true}}
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Documents) < 2 {
		t.Fatalf("results = %d", len(res.Documents))
	}
	prev := ""
	for _, d := range res.Documents {
		date := d.Fields[attr.FieldDateLastModified]
		_ = date // date may be absent from answer fields; sort happened engine-side
	}
	// Request the date as an answer field to verify the order.
	q.AnswerFields = []attr.Field{attr.FieldDateLastModified}
	res, err = e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	prev = ""
	for _, d := range res.Documents {
		date := d.Fields[attr.FieldDateLastModified]
		if date < prev {
			t.Errorf("dates not ascending: %s after %s", date, prev)
		}
		prev = date
	}
	// Title descending.
	q.SortBy = []query.SortKey{{Field: attr.FieldTitle}}
	res, err = e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	prevT := "zzzz"
	for _, d := range res.Documents {
		title := strings.ToLower(d.Title())
		if title > prevT {
			t.Errorf("titles not descending: %q after %q", title, prevT)
		}
		prevT = title
	}
}

func TestAnswerFields(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	q := mkQuery(t, `(author "Ullman")`, "")
	q.AnswerFields = []attr.Field{attr.FieldTitle, attr.FieldAuthor, attr.FieldDateLastModified}
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Documents {
		if d.Linkage() == "" {
			t.Error("linkage missing (always returned)")
		}
		if d.Title() == "" || d.Fields[attr.FieldAuthor] == "" || d.Fields[attr.FieldDateLastModified] == "" {
			t.Errorf("requested answer fields missing: %v", d.Fields)
		}
	}
}

func TestTopKScorer(t *testing.T) {
	cfg := NewVectorConfig()
	cfg.Scorer = TopK{}
	e := newEngine(t, cfg)
	q := mkQuery(t, "", `list((any "databases"))`)
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Documents) == 0 {
		t.Fatal("no results")
	}
	// The paper's observation: some engines always score the top document
	// 1000.
	if res.Documents[0].RawScore != 1000 {
		t.Errorf("top score = %g, want 1000", res.Documents[0].RawScore)
	}
}

func TestProxInRanking(t *testing.T) {
	cfg := NewVectorConfig()
	cfg.Scorer = RawTF{}
	e := newEngine(t, cfg)
	q := mkQuery(t, "", `((body-of-text "distributed") prox[1,T] (body-of-text "databases"))`)
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	d := findDoc(t, res, "http://x/lagunita.ps")
	if d.RawScore != 1 { // min(tf=4, tf=1)
		t.Errorf("prox ranking score = %g", d.RawScore)
	}
}

func TestCapabilityPredicates(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	if !e.SupportsField(attr.FieldTitle) || !e.SupportsField(attr.FieldLinkage) {
		t.Error("required fields must always be supported")
	}
	if e.SupportsField("made-up-field") {
		t.Error("unknown field supported")
	}
	if e.SupportsModifier(attr.ModThesaurus) {
		t.Error("thesaurus supported without a thesaurus")
	}
	if e.SupportsModifier(attr.ModCaseSensitive) {
		t.Error("case-sensitive supported on a folding engine")
	}
	if !e.AllowsCombination(attr.FieldDateLastModified, attr.ModGT) {
		t.Error("date comparison should be legal")
	}
	if e.AllowsCombination(attr.FieldTitle, attr.ModGT) {
		t.Error("> on title should be illegal")
	}
	cfgTh := NewVectorConfig()
	cfgTh.Thesaurus = text.DefaultThesaurus()
	eth := newEngine(t, cfgTh)
	if !eth.SupportsModifier(attr.ModThesaurus) {
		t.Error("thesaurus should be supported with a thesaurus")
	}
	cfgCS := NewVectorConfig()
	cfgCS.Analyzer = &text.Analyzer{Tokenizer: cfgCS.Analyzer.Tokenizer, CaseSensitive: true}
	ecs := newEngine(t, cfgCS)
	if !ecs.SupportsModifier(attr.ModCaseSensitive) {
		t.Error("case-sensitive should be supported on a case-preserving engine")
	}
}

func TestSearchValidatesQuery(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	if _, err := e.Search(query.New()); err == nil {
		t.Error("query with no expressions accepted")
	}
	q := mkQuery(t, `(date-last-modified > "not a date")`, "")
	if _, err := e.Search(q); err == nil {
		t.Error("unparsable date accepted")
	}
}

func TestFilterPlusRankingComposition(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	// Example 1 semantics: filter selects, ranking orders.
	q := mkQuery(t,
		`(author "Ullman")`,
		`list((body-of-text "distributed") (body-of-text "databases"))`)
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Documents) != 2 {
		t.Fatalf("results = %d, want the two Ullman docs", len(res.Documents))
	}
	if res.Documents[0].Linkage() != "http://x/lagunita.ps" {
		t.Errorf("ranking did not order the filter set: top = %s", res.Documents[0].Linkage())
	}
}

// TestDefaultAttributeSetResolution: a dc-1 query with "creator" fields
// runs against an engine that only knows Basic-1 author.
func TestDefaultAttributeSetResolution(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	q := mkQuery(t, `(creator "Ullman")`, "")
	q.DefaultAttrSet = "dc-1"
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Documents) != 2 {
		t.Errorf("dc-1 creator query matched %d docs, want 2", len(res.Documents))
	}
	// The actual query echoes the resolved Basic-1 field.
	if res.ActualFilter.String() != `(author "Ullman")` {
		t.Errorf("actual filter = %s", res.ActualFilter)
	}
	// The same query under basic-1 treats "creator" as an unknown field
	// and drops it.
	q2 := mkQuery(t, `(creator "Ullman")`, "")
	res2, err := e.Search(q2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ActualFilter != nil {
		t.Errorf("basic-1 creator survived: %s", res2.ActualFilter)
	}
}

// TestSearchDuringAddAnswersOnePrefix is the regression test of the
// one-snapshot rule: Search used to take the index lock once for the
// filter, again for each ranking term, again for the collection size and
// per document for lengths, so an Add in between mixed the match set of one
// index state with the n, df and lengths of another. Every answer given
// while documents are being added must be, whole, the answer at some prefix
// of the adds.
func TestSearchDuringAddAnswersOnePrefix(t *testing.T) {
	const docs = 60
	doc := func(i int) *index.Document {
		body := "alpha " + strings.Repeat("pad ", i%5)
		if i%3 == 0 {
			body += "beta beta"
		}
		return &index.Document{Linkage: "http://x/" + itoa(i), Title: "Doc " + itoa(i), Body: body}
	}
	q := mkQuery(t, `(body-of-text "alpha")`, `list((body-of-text "alpha") (body-of-text "beta"))`)
	q.MaxResults = docs
	// The answer at every prefix, each from an engine that never changes.
	want := make([]*result.Results, docs+1)
	for n := range want {
		e, err := New(NewVectorConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := e.Add(doc(i)); err != nil {
				t.Fatal(err)
			}
		}
		if want[n], err = e.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < docs; i++ {
			if err := e.Add(doc(i)); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true
				default:
				}
				got, err := e.Search(q)
				if err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				n := len(got.Documents) // the filter matches every document
				if n > docs || !reflect.DeepEqual(got, want[n]) {
					t.Errorf("an answer of %d documents is not the answer at %d documents", n, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}
