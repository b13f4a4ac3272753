package query

import (
	"reflect"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/soif"
)

// paperExample6 is the SQuery SOIF object of the paper's Example 6, with
// byte lengths recomputed for the canonical double-quote l-string syntax
// (the paper typesets strings as “...” and its printed lengths reflect
// its own line wrapping).
func paperExample6Query(t *testing.T) *Query {
	t.Helper()
	q := New()
	var err error
	q.Filter, err = ParseFilter("((author ``Ullman'') and (title stem ``databases''))")
	if err != nil {
		t.Fatal(err)
	}
	q.Ranking, err = ParseRanking("list((body-of-text ``distributed'') (body-of-text ``databases''))")
	if err != nil {
		t.Fatal(err)
	}
	q.DropStopWords = true
	q.DefaultAttrSet = attr.SetBasic1
	q.DefaultLanguage = lang.EnglishUS
	q.AnswerFields = []attr.Field{attr.FieldTitle, attr.FieldAuthor}
	q.MinScore = 0.5
	q.MaxResults = 10
	return q
}

// TestPaperExample6 is experiment E6: the complete SQuery object round
// trips through SOIF with every attribute of the paper's example intact.
func TestPaperExample6(t *testing.T) {
	q := paperExample6Query(t)
	data, err := q.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	text := string(data)
	for _, want := range []string{
		"@SQuery{",
		"Version{10}: STARTS 1.0",
		`FilterExpression{48}: ((author "Ullman") and (title stem "databases"))`,
		`RankingExpression{61}: list((body-of-text "distributed") (body-of-text "databases"))`,
		"DropStopWords{1}: T",
		"DefaultAttributeSet{7}: basic-1",
		"DefaultLanguage{5}: en-US",
		"AnswerFields{12}: title author",
		"MinDocumentScore{3}: 0.5",
		"MaxNumberDocuments{2}: 10",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("encoded query missing %q:\n%s", want, text)
		}
	}

	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if back.Filter.String() != q.Filter.String() || back.Ranking.String() != q.Ranking.String() {
		t.Errorf("expressions changed: %s / %s", back.Filter, back.Ranking)
	}
	if !back.DropStopWords || back.MinScore != 0.5 || back.MaxResults != 10 {
		t.Errorf("result spec changed: %+v", back)
	}
	if !reflect.DeepEqual(back.AnswerFields, q.AnswerFields) {
		t.Errorf("AnswerFields = %v", back.AnswerFields)
	}
}

// TestPaperExample6Verbatim decodes the example as printed in the paper,
// reconstructed with correct byte counts, exercising the “...” quoting.
func TestPaperExample6Verbatim(t *testing.T) {
	filter := "((author ``Ullman'') and (title stem ``databases''))"
	ranking := "list((body-of-text ``distributed'') (body-of-text ``databases''))"
	o := soif.New("SQuery")
	o.Add("Version", "STARTS 1.0")
	o.Add("FilterExpression", filter)
	o.Add("RankingExpression", ranking)
	o.Add("DropStopWords", "T")
	o.Add("DefaultAttributeSet", "basic-1")
	o.Add("DefaultLanguage", "en-US")
	o.Add("AnswerFields", "title author")
	o.Add("MinDocumentScore", "0.5")
	o.Add("MaxNumberDocuments", "10")
	data, err := soif.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse paper text: %v", err)
	}
	if q.Filter == nil || q.Ranking == nil {
		t.Fatal("expressions missing")
	}
	terms := q.Filter.Terms(nil)
	if len(terms) != 2 || terms[0].Value.Text != "Ullman" || !terms[1].HasMod(attr.ModStem) {
		t.Errorf("filter terms = %+v", terms)
	}
}

func TestQueryDefaults(t *testing.T) {
	q := New()
	if !q.DropStopWords || q.DefaultAttrSet != attr.SetBasic1 || q.DefaultLanguage != lang.EnglishUS {
		t.Errorf("defaults = %+v", q)
	}
	if got := q.AppendAnswerFields(nil); len(got) != 2 || got[0] != attr.FieldTitle || got[1] != attr.FieldLinkage {
		t.Errorf("AppendAnswerFields = %v", got)
	}
	if got := q.EffectiveSort(); len(got) != 1 || got[0].Field != ScoreSortField || got[0].Ascending {
		t.Errorf("EffectiveSort = %v", got)
	}
	q2 := &Query{}
	if q2.EffectiveMaxResults() != DefaultMaxResults {
		t.Errorf("EffectiveMaxResults = %d", q2.EffectiveMaxResults())
	}
	// Linkage is always in the answer even if not requested.
	q.AnswerFields = []attr.Field{attr.FieldAuthor}
	fields := q.AppendAnswerFields(nil)
	if fields[len(fields)-1] != attr.FieldLinkage {
		t.Errorf("linkage not forced into answer: %v", fields)
	}
	// But not duplicated.
	q.AnswerFields = []attr.Field{attr.FieldLinkage, attr.FieldTitle}
	if got := q.AppendAnswerFields(nil); len(got) != 2 {
		t.Errorf("linkage duplicated: %v", got)
	}
}

func TestQueryValidate(t *testing.T) {
	q := New()
	if err := q.Validate(); err == nil {
		t.Error("query with neither expression validated")
	}
	q.Filter, _ = ParseFilter(`(title "x")`)
	if err := q.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	q.MinScore = -1
	if err := q.Validate(); err == nil {
		t.Error("negative MinScore validated")
	}
	q.MinScore = 0
	q.MaxResults = -5
	if err := q.Validate(); err == nil {
		t.Error("negative MaxResults validated")
	}
}

func TestQuerySortKeysAndSources(t *testing.T) {
	q := New()
	q.Filter, _ = ParseFilter(`(title "x")`)
	q.Sources = []string{"Source-1", "Source-2"}
	q.SortBy = []SortKey{{Field: attr.FieldDateLastModified, Ascending: true}, {Field: ScoreSortField}}
	data, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Sources{17}: Source-1 Source-2") {
		t.Errorf("Sources encoding wrong:\n%s", data)
	}
	if !strings.Contains(string(data), "SortByFields{28}: date-last-modified a score d") {
		t.Errorf("SortByFields encoding wrong:\n%s", data)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Sources, q.Sources) || !reflect.DeepEqual(back.SortBy, q.SortBy) {
		t.Errorf("round trip: %+v", back)
	}
}

func TestFromSOIFErrors(t *testing.T) {
	mk := func(attrs ...[2]string) *soif.Object {
		o := soif.New("SQuery")
		o.Add("FilterExpression", `(title "x")`)
		for _, kv := range attrs {
			o.Set(kv[0], kv[1])
		}
		return o
	}
	cases := []*soif.Object{
		soif.New("NotAQuery"),
		mk([2]string{"FilterExpression", "((("}),
		mk([2]string{"RankingExpression", "list()"}),
		mk([2]string{"DropStopWords", "maybe"}),
		mk([2]string{"DefaultLanguage", "not a tag"}),
		mk([2]string{"MinDocumentScore", "high"}),
		mk([2]string{"MaxNumberDocuments", "many"}),
		mk([2]string{"SortByFields", "title"}),
		mk([2]string{"SortByFields", "title sideways"}),
	}
	for i, o := range cases {
		if _, err := FromSOIF(o); err == nil {
			t.Errorf("case %d: FromSOIF succeeded, want error", i)
		}
	}
}

func TestFilterOnlyAndRankingOnlyQueries(t *testing.T) {
	// A query need not contain both expressions.
	q := New()
	q.Filter, _ = ParseFilter(`(author "Ullman")`)
	data, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, _ := Parse(data)
	if back.Ranking != nil {
		t.Error("ranking appeared from nowhere")
	}
	q2 := New()
	q2.Ranking, _ = ParseRanking(`list("databases")`)
	data2, err := q2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back2, _ := Parse(data2)
	if back2.Filter != nil {
		t.Error("filter appeared from nowhere")
	}
}

func BenchmarkSQueryRoundTrip(b *testing.B) {
	q := New()
	q.Filter, _ = ParseFilter(`((author "Ullman") and (title stem "databases"))`)
	q.Ranking, _ = ParseRanking(`list((body-of-text "distributed") (body-of-text "databases"))`)
	q.MinScore = 0.5
	q.MaxResults = 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := q.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}
