package gloss

import (
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/meta"
	"starts/internal/query"
)

// summary builds a one-group body-of-text summary with given term stats.
func summary(numDocs int, stemmed bool, terms map[string][2]int) *meta.ContentSummary {
	c := &meta.ContentSummary{
		Stemming: stemmed, StopWordsIncluded: true, FieldsQualified: true,
		NumDocs: numDocs,
	}
	g := meta.SummaryGroup{Field: attr.FieldBodyOfText}
	for term, pd := range terms {
		g.Terms = append(g.Terms, meta.TermInfo{Term: term, Postings: pd[0], DocFreq: pd[1]})
	}
	c.Groups = []meta.SummaryGroup{g}
	c.SortTerms()
	return c
}

func rankQuery(t *testing.T, ranking string) *query.Query {
	t.Helper()
	q := query.New()
	r, err := query.ParseRanking(ranking)
	if err != nil {
		t.Fatal(err)
	}
	q.Ranking = r
	return q
}

func testSources() []SourceInfo {
	return []SourceInfo{
		// CS-heavy source: databases everywhere.
		{ID: "cs", Summary: summary(1000, false, map[string][2]int{
			"databases": {5000, 800}, "distributed": {1500, 400}, "tomato": {2, 1},
		})},
		// Gardening source: databases almost absent.
		{ID: "garden", Summary: summary(1000, false, map[string][2]int{
			"databases": {3, 2}, "tomato": {4000, 900}, "distributed": {10, 5},
		})},
		// Small mixed source.
		{ID: "mixed", Summary: summary(100, false, map[string][2]int{
			"databases": {50, 30}, "tomato": {40, 25}, "distributed": {20, 10},
		})},
	}
}

func order(rs []Ranked) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func TestVSumRanksTopicalSourceFirst(t *testing.T) {
	q := rankQuery(t, `list((body-of-text "databases") (body-of-text "distributed"))`)
	got := order(VSum{}.Rank(q, testSources()))
	if got[0] != "cs" || got[2] != "garden" {
		t.Errorf("VSum order = %v", got)
	}
	qg := rankQuery(t, `list((body-of-text "tomato"))`)
	if got := order(VSum{}.Rank(qg, testSources())); got[0] != "garden" {
		t.Errorf("VSum tomato order = %v", got)
	}
}

func TestVMaxUsesLargestTerm(t *testing.T) {
	q := rankQuery(t, `list((body-of-text "databases") (body-of-text "tomato"))`)
	rs := VMax{}.Rank(q, testSources())
	if rs[0].ID != "garden" || rs[0].Goodness != 900 {
		t.Errorf("VMax = %+v", rs)
	}
	// Sum would put cs first (800+1 < 2+900? no: cs=800+1=801, garden=902)
	// — both agree here; distinguish with a query where they differ.
	q2 := rankQuery(t, `list((body-of-text "databases"))`)
	rs2 := VMax{}.Rank(q2, testSources())
	if rs2[0].ID != "cs" {
		t.Errorf("VMax databases = %+v", rs2)
	}
}

func TestBGlossConjunctiveEstimate(t *testing.T) {
	q := query.New()
	f, err := query.ParseFilter(`((body-of-text "databases") and (body-of-text "distributed"))`)
	if err != nil {
		t.Fatal(err)
	}
	q.Filter = f
	rs := BGloss{}.Rank(q, testSources())
	// cs: 1000 * (800/1000) * (400/1000) = 320. garden: 1000*2/1000*5/1000
	// = 0.01. mixed: 100*(30/100)*(10/100) = 3.
	if rs[0].ID != "cs" || rs[0].Goodness != 320 {
		t.Errorf("bGlOSS = %+v", rs)
	}
	if rs[1].ID != "mixed" {
		t.Errorf("bGlOSS second = %+v", rs[1])
	}
}

func TestStemmedSummaryProbing(t *testing.T) {
	// A stemmed summary stores "databas"; the probe must stem too.
	srcs := []SourceInfo{
		{ID: "s", Summary: summary(10, true, map[string][2]int{"databas": {5, 4}})},
	}
	q := rankQuery(t, `list((body-of-text "databases"))`)
	rs := VSum{}.Rank(q, srcs)
	if rs[0].Goodness != 4 {
		t.Errorf("stemmed probe goodness = %g", rs[0].Goodness)
	}
}

func TestCaseSensitiveSummaryProbing(t *testing.T) {
	srcs := []SourceInfo{
		{ID: "s", Summary: &meta.ContentSummary{
			CaseSensitive: true, FieldsQualified: true, NumDocs: 10,
			Groups: []meta.SummaryGroup{{Field: attr.FieldBodyOfText,
				Terms: []meta.TermInfo{{Term: "Ullman", Postings: 3, DocFreq: 2}}}},
		}},
	}
	q := rankQuery(t, `list((body-of-text "Ullman"))`)
	if rs := (VSum{}).Rank(q, srcs); rs[0].Goodness != 2 {
		t.Errorf("case-sensitive probe = %g", rs[0].Goodness)
	}
}

func TestWeightsInfluenceGoodness(t *testing.T) {
	q1 := rankQuery(t, `list(((body-of-text "databases") 0.1) ((body-of-text "tomato") 0.9))`)
	rs := VSum{}.Rank(q1, testSources())
	// garden: 0.1*2 + 0.9*900 = 810.2; cs: 0.1*800 + 0.9*1 = 80.9.
	if rs[0].ID != "garden" {
		t.Errorf("weighted VSum = %+v", rs)
	}
}

func TestFilterOnlyQueriesProbeFilterTerms(t *testing.T) {
	q := query.New()
	q.Filter, _ = query.ParseFilter(`(body-of-text "tomato")`)
	rs := VSum{}.Rank(q, testSources())
	if rs[0].ID != "garden" {
		t.Errorf("filter-probe order = %v", order(rs))
	}
}

func TestMissingSummaryScoresZero(t *testing.T) {
	srcs := append(testSources(), SourceInfo{ID: "dark"})
	q := rankQuery(t, `list((body-of-text "databases"))`)
	rs := VSum{}.Rank(q, srcs)
	last := rs[len(rs)-1]
	if last.Goodness != 0 {
		t.Errorf("summary-less source goodness = %g", last.Goodness)
	}
}

func TestRandomDeterministicPerQuery(t *testing.T) {
	q := rankQuery(t, `list((body-of-text "databases"))`)
	a := order(Random{Seed: 1}.Rank(q, testSources()))
	b := order(Random{Seed: 1}.Rank(q, testSources()))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random selector not deterministic: %v vs %v", a, b)
		}
	}
	if len(a) != 3 {
		t.Errorf("random dropped sources: %v", a)
	}
}

func TestTieBreakByID(t *testing.T) {
	srcs := []SourceInfo{
		{ID: "b", Summary: summary(10, false, map[string][2]int{"x": {1, 1}})},
		{ID: "a", Summary: summary(10, false, map[string][2]int{"x": {1, 1}})},
	}
	q := rankQuery(t, `list((body-of-text "x"))`)
	if got := order(VSum{}.Rank(q, srcs)); got[0] != "a" {
		t.Errorf("tie order = %v", got)
	}
}

func TestSelectorNames(t *testing.T) {
	for _, s := range []Selector{VSum{}, VMax{}, BGloss{}, Random{}} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}

func TestLanguageQualifiedProbe(t *testing.T) {
	srcs := []SourceInfo{
		{ID: "es", Summary: &meta.ContentSummary{
			FieldsQualified: true, NumDocs: 10,
			Groups: []meta.SummaryGroup{{Field: attr.FieldBodyOfText, Language: lang.Spanish,
				Terms: []meta.TermInfo{{Term: "datos", Postings: 9, DocFreq: 7}}}},
		}},
		{ID: "en", Summary: &meta.ContentSummary{
			FieldsQualified: true, NumDocs: 10,
			Groups: []meta.SummaryGroup{{Field: attr.FieldBodyOfText, Language: lang.EnglishUS,
				Terms: []meta.TermInfo{{Term: "datos", Postings: 1, DocFreq: 1}}}},
		}},
	}
	q := rankQuery(t, `list((body-of-text [es "datos"]))`)
	rs := VSum{}.Rank(q, srcs)
	if rs[0].ID != "es" || rs[0].Goodness != 7 {
		t.Errorf("language probe = %+v", rs)
	}
	// The en group does not match an es probe.
	if rs[1].Goodness != 0 {
		t.Errorf("en goodness = %g", rs[1].Goodness)
	}
}
