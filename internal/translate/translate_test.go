package translate

import (
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
)

// fullMeta describes a capable source: both query parts, author+body
// fields, stem+phonetic modifiers (all combos legal), stop words can be
// turned off.
func fullMeta() *meta.SourceMeta {
	m := &meta.SourceMeta{
		SourceID:   "S",
		QueryParts: meta.PartsBoth,
		FieldsSupported: []meta.FieldSupport{
			{Set: attr.SetBasic1, Field: attr.FieldAuthor},
			{Set: attr.SetBasic1, Field: attr.FieldBodyOfText},
		},
		ModifiersSupported: []meta.ModifierSupport{
			{Set: attr.SetBasic1, Mod: attr.ModStem},
			{Set: attr.SetBasic1, Mod: attr.ModPhonetic},
		},
		TurnOffStopWords: true,
		StopWords:        []string{"the", "a", "of", "who"},
	}
	for _, f := range []attr.Field{attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText, attr.FieldAny} {
		for _, mod := range []attr.Modifier{attr.ModStem, attr.ModPhonetic} {
			m.Combinations = append(m.Combinations, meta.Combination{
				Field: meta.FieldSupport{Set: attr.SetBasic1, Field: f},
				Mod:   meta.ModifierSupport{Set: attr.SetBasic1, Mod: mod},
			})
		}
	}
	return m
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

func TestLosslessTranslation(t *testing.T) {
	q := mkQuery(t, `((author "Ullman") and (body-of-text stem "databases"))`,
		`list((body-of-text "distributed"))`)
	out, rep := ForSource(q, fullMeta())
	if !rep.Clean() {
		t.Errorf("report not clean: %+v", rep)
	}
	if out.Filter.String() != q.Filter.String() || out.Ranking.String() != q.Ranking.String() {
		t.Errorf("lossless translation changed query: %s / %s", out.Filter, out.Ranking)
	}
	// Original untouched.
	if q.Filter == nil {
		t.Error("original mutated")
	}
}

func TestRankingOnlySourceDropsFilter(t *testing.T) {
	m := fullMeta()
	m.QueryParts = meta.PartsRanking
	q := mkQuery(t, `(author "Ullman")`, `list((body-of-text "databases"))`)
	out, rep := ForSource(q, m)
	if out.Filter != nil || !rep.DroppedFilter {
		t.Errorf("filter not dropped: %v %+v", out.Filter, rep)
	}
	if len(rep.DroppedTerms) != 1 || rep.DroppedTerms[0].Value.Text != "Ullman" {
		t.Errorf("dropped terms = %+v", rep.DroppedTerms)
	}
	if out.Ranking == nil {
		t.Error("ranking lost")
	}
}

func TestFilterOnlySourceDropsRanking(t *testing.T) {
	m := fullMeta()
	m.QueryParts = meta.PartsFilter
	q := mkQuery(t, `(author "Ullman")`, `list((body-of-text "databases"))`)
	out, rep := ForSource(q, m)
	if out.Ranking != nil || !rep.DroppedRanking {
		t.Errorf("ranking not dropped: %v %+v", out.Ranking, rep)
	}
}

func TestUnsupportedFieldTermDropped(t *testing.T) {
	m := fullMeta()
	m.FieldsSupported = m.FieldsSupported[1:] // drop author support
	q := mkQuery(t, `((author "Ullman") and (body-of-text "databases"))`, "")
	out, rep := ForSource(q, m)
	if out.Filter.String() != `(body-of-text "databases")` {
		t.Errorf("filter = %s", out.Filter)
	}
	if len(rep.DroppedTerms) != 1 || rep.DroppedTerms[0].Field != attr.FieldAuthor {
		t.Errorf("dropped = %+v", rep.DroppedTerms)
	}
}

func TestModifierStripping(t *testing.T) {
	m := fullMeta()
	m.ModifiersSupported = m.ModifiersSupported[:1] // stem only
	q := mkQuery(t, `(author phonetic "Smith")`, "")
	out, rep := ForSource(q, m)
	if out.Filter.String() != `(author "Smith")` {
		t.Errorf("filter = %s", out.Filter)
	}
	if len(rep.StrippedMods) != 1 || rep.StrippedMods[0].Mod != attr.ModPhonetic {
		t.Errorf("stripped = %+v", rep.StrippedMods)
	}
}

func TestIllegalCombinationStripping(t *testing.T) {
	m := fullMeta()
	// Remove the (author, stem) combination specifically.
	var combos []meta.Combination
	for _, c := range m.Combinations {
		if !(c.Field.Field == attr.FieldAuthor && c.Mod.Mod == attr.ModStem) {
			combos = append(combos, c)
		}
	}
	m.Combinations = combos
	q := mkQuery(t, `((author stem "Ullman") and (body-of-text stem "databases"))`, "")
	out, rep := ForSource(q, m)
	if out.Filter.String() != `((author "Ullman") and (body-of-text stem "databases"))` {
		t.Errorf("filter = %s", out.Filter)
	}
	if len(rep.StrippedMods) != 1 {
		t.Errorf("stripped = %+v", rep.StrippedMods)
	}
}

func TestStopWordPrediction(t *testing.T) {
	// "The Who": both words in the source's stop list; predicted dropped.
	q := mkQuery(t, `((body-of-text "the who") and (body-of-text "concert"))`, "")
	out, rep := ForSource(q, fullMeta())
	if out.Filter.String() != `(body-of-text "concert")` {
		t.Errorf("filter = %s", out.Filter)
	}
	if len(rep.DroppedTerms) != 1 {
		t.Errorf("dropped = %+v", rep.DroppedTerms)
	}
	// With DropStopWords=F at a source that can turn them off, the phrase
	// survives.
	q2 := mkQuery(t, `(body-of-text "the who")`, "")
	q2.DropStopWords = false
	out2, rep2 := ForSource(q2, fullMeta())
	if out2.Filter == nil || !rep2.Clean() {
		t.Errorf("phrase lost despite DropStopWords=F: %v %+v", out2.Filter, rep2)
	}
	// At a source that cannot turn them off, the denial is reported and
	// the phrase is predicted gone.
	m := fullMeta()
	m.TurnOffStopWords = false
	out3, rep3 := ForSource(q2, m)
	if !rep3.KeepStopWordsDenied {
		t.Error("denial not reported")
	}
	if out3.Filter != nil {
		t.Errorf("filter survived: %s", out3.Filter)
	}
}

func TestProxCollapse(t *testing.T) {
	m := fullMeta()
	m.FieldsSupported = m.FieldsSupported[1:] // no author
	q := mkQuery(t, `((author "Ullman") prox[2,T] (body-of-text "databases"))`, "")
	out, _ := ForSource(q, m)
	if out.Filter.String() != `(body-of-text "databases")` {
		t.Errorf("prox collapse = %s", out.Filter)
	}
}

func TestAndNotCollapse(t *testing.T) {
	m := fullMeta()
	m.FieldsSupported = m.FieldsSupported[1:] // no author
	// Positive side unsupported -> whole and-not goes.
	q := mkQuery(t, `((author "Ullman") and-not (body-of-text "surveys"))`, "")
	out, _ := ForSource(q, m)
	if out.Filter != nil {
		t.Errorf("and-not kept bare negation: %s", out.Filter)
	}
}

func TestListCollapse(t *testing.T) {
	m := fullMeta()
	m.FieldsSupported = m.FieldsSupported[1:] // no author
	q := mkQuery(t, "", `list((author "Ullman") (body-of-text "databases"))`)
	out, _ := ForSource(q, m)
	if out.Ranking.String() != `list((body-of-text "databases"))` {
		t.Errorf("ranking = %s", out.Ranking)
	}
	q2 := mkQuery(t, "", `list((author "Ullman"))`)
	out2, _ := ForSource(q2, m)
	if out2.Ranking != nil {
		t.Errorf("empty list survived: %s", out2.Ranking)
	}
}

func mkDoc(title, author string) *result.Document {
	return &result.Document{Fields: []result.FieldValue{
		{Field: attr.FieldLinkage, Value: "http://x/" + title},
		{Field: attr.FieldTitle, Value: title},
		{Field: attr.FieldAuthor, Value: author},
	}}
}

func TestPostFilterVerification(t *testing.T) {
	docs := []*result.Document{
		mkDoc("Database systems by Ullman", "Jeffrey Ullman"),
		mkDoc("Gardening weekly", "Green Thumb"),
		mkDoc("Particle physics", "Art Smith"),
	}
	dropped := []query.Term{query.NewTerm(attr.FieldAuthor, lang.L("Ullman"))}
	kept, unver := PostFilter(docs, dropped)
	if len(kept) != 1 || kept[0].Title() != "Database systems by Ullman" {
		t.Errorf("kept = %d", len(kept))
	}
	if len(unver) != 0 {
		t.Errorf("unverifiable = %+v", unver)
	}

	// Word boundaries: "art" must not match "particle" but matches "Art".
	droppedArt := []query.Term{query.NewTerm(attr.FieldAuthor, lang.L("art"))}
	keptArt, _ := PostFilter(docs, droppedArt)
	if len(keptArt) != 1 || keptArt[0].Field(attr.FieldAuthor) != "Art Smith" {
		t.Errorf("boundary check failed: %d kept", len(keptArt))
	}

	// Body terms are unverifiable from title/author answers.
	droppedBody := []query.Term{query.NewTerm(attr.FieldBodyOfText, lang.L("quarks"))}
	keptB, unverB := PostFilter(docs, droppedBody)
	if len(keptB) != 3 || len(unverB) != 1 {
		t.Errorf("body post-filter: kept %d unver %d", len(keptB), len(unverB))
	}

	// Any-field terms check all returned fields.
	droppedAny := []query.Term{query.NewTerm(attr.FieldAny, lang.L("gardening"))}
	keptAny, _ := PostFilter(docs, droppedAny)
	if len(keptAny) != 1 || keptAny[0].Title() != "Gardening weekly" {
		t.Errorf("any post-filter kept %d", len(keptAny))
	}

	// Truncation modifiers relax the boundary.
	droppedTrunc := []query.Term{query.NewTerm(attr.FieldTitle, lang.L("Garden"), attr.ModRightTruncation)}
	keptT, _ := PostFilter(docs, droppedTrunc)
	if len(keptT) != 1 {
		t.Errorf("truncated post-filter kept %d", len(keptT))
	}
}

func TestSortSpecPreserved(t *testing.T) {
	q := mkQuery(t, `(body-of-text "databases")`, "")
	q.SortBy = []query.SortKey{{Field: attr.FieldDateLastModified, Ascending: true}}
	q.MaxResults = 7
	q.MinScore = 0.25
	out, _ := ForSource(q, fullMeta())
	if len(out.SortBy) != 1 || out.MaxResults != 7 || out.MinScore != 0.25 {
		t.Errorf("result spec lost: %+v", out)
	}
}

func TestTranslateResolvesAttributeSet(t *testing.T) {
	q := mkQuery(t, `(creator "Ullman")`, "")
	q.DefaultAttrSet = "dc-1"
	out, rep := ForSource(q, fullMeta())
	if !rep.Clean() {
		t.Errorf("report = %+v", rep)
	}
	if out.Filter.String() != `(author "Ullman")` {
		t.Errorf("translated filter = %s", out.Filter)
	}
	if out.DefaultAttrSet != attr.SetBasic1 {
		t.Errorf("set = %s", out.DefaultAttrSet)
	}
}

// TestSynthesizedFilter: a ranking-only query at a filter-only source is
// downgraded to an OR filter so the source still contributes candidates.
func TestSynthesizedFilter(t *testing.T) {
	m := fullMeta()
	m.QueryParts = meta.PartsFilter
	q := mkQuery(t, "", `list((body-of-text "distributed") (body-of-text "databases"))`)
	out, rep := ForSource(q, m)
	if !rep.DroppedRanking || !rep.SynthesizedFilter {
		t.Fatalf("report = %+v", rep)
	}
	want := `((body-of-text "distributed") or (body-of-text "databases"))`
	if out.Filter == nil || out.Filter.String() != want {
		t.Errorf("synthesized filter = %v, want %s", out.Filter, want)
	}
	if out.Ranking != nil {
		t.Errorf("ranking survived: %s", out.Ranking)
	}
	// Weighted ranking terms lose their weights (illegal in filters).
	q2 := mkQuery(t, "", `list(((body-of-text "distributed") 0.7))`)
	out2, _ := ForSource(q2, m)
	if out2.Filter == nil || out2.Filter.String() != `(body-of-text "distributed")` {
		t.Errorf("weighted synthesis = %v", out2.Filter)
	}
}

// TestSynthesizedRanking: a filter-only query at a ranking-only source is
// recast as a ranking list, with the filter terms reported for
// post-filtering.
func TestSynthesizedRanking(t *testing.T) {
	m := fullMeta()
	m.QueryParts = meta.PartsRanking
	q := mkQuery(t, `((author "Ullman") and (body-of-text "databases"))`, "")
	out, rep := ForSource(q, m)
	if !rep.DroppedFilter || !rep.SynthesizedRanking {
		t.Fatalf("report = %+v", rep)
	}
	want := `list((author "Ullman") (body-of-text "databases"))`
	if out.Ranking == nil || out.Ranking.String() != want {
		t.Errorf("synthesized ranking = %v, want %s", out.Ranking, want)
	}
	// The original filter terms are flagged for verification.
	if len(rep.DroppedTerms) < 2 {
		t.Errorf("dropped terms = %+v", rep.DroppedTerms)
	}
	if rep.Clean() {
		t.Error("synthesis must not report clean")
	}
}

// TestSynthesisImpossible: when even the synthesized form dies (all terms
// unsupported), nothing is sent.
func TestSynthesisImpossible(t *testing.T) {
	m := fullMeta()
	m.QueryParts = meta.PartsFilter
	m.FieldsSupported = nil // only required fields
	q := mkQuery(t, "", `list((body-of-text "databases"))`)
	out, _ := ForSource(q, m)
	if out.Filter != nil || out.Ranking != nil {
		t.Errorf("something survived: %v / %v", out.Filter, out.Ranking)
	}
}

// TestStopWordPredictionEdges covers punctuation-only and non-text terms.
func TestStopWordPredictionEdges(t *testing.T) {
	m := fullMeta()
	// A source exporting no stop words predicts nothing dropped.
	m.StopWords = nil
	q := mkQuery(t, `(body-of-text "the")`, "")
	out, rep := ForSource(q, m)
	if out.Filter == nil || len(rep.DroppedTerms) != 0 {
		t.Errorf("no-stop-list source dropped terms: %+v", rep)
	}
	// Punctuation-only values are not stop-word eliminated.
	q2 := mkQuery(t, `(body-of-text "...")`, "")
	out2, _ := ForSource(q2, fullMeta())
	if out2.Filter == nil {
		t.Error("punctuation-only term dropped")
	}
	// Date terms are never stop-word checked.
	q3 := mkQuery(t, `(date-last-modified > "1996-01-01")`, "")
	m3 := fullMeta()
	m3.FieldsSupported = append(m3.FieldsSupported, meta.FieldSupport{Set: attr.SetBasic1, Field: attr.FieldDateLastModified})
	out3, _ := ForSource(q3, m3)
	if out3.Filter == nil {
		t.Error("date term dropped")
	}
}

// TestPostFilterEmptyDropList passes through untouched.
func TestPostFilterEmptyDropList(t *testing.T) {
	docs := []*result.Document{mkDoc("A", "X"), mkDoc("B", "Y")}
	kept, unver := PostFilter(docs, nil)
	if len(kept) != 2 || len(unver) != 0 {
		t.Errorf("kept %d unver %d", len(kept), len(unver))
	}
}

// TestDocMatchesLeftTruncation exercises the left-truncation boundary
// relaxation in verification mode.
func TestDocMatchesLeftTruncation(t *testing.T) {
	docs := []*result.Document{mkDoc("Hyperdatabases explained", "A")}
	dropped := []query.Term{query.NewTerm(attr.FieldTitle, lang.L("databases"), attr.ModLeftTruncation)}
	kept, _ := PostFilter(docs, dropped)
	if len(kept) != 1 {
		t.Errorf("left-truncation match failed")
	}
	// Without the modifier, "hyperdatabases" does not word-match.
	droppedExact := []query.Term{query.NewTerm(attr.FieldTitle, lang.L("databases"))}
	keptE, _ := PostFilter(docs, droppedExact)
	if len(keptE) != 0 {
		t.Errorf("exact match should fail on hyperdatabases")
	}
}
