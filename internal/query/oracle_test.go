package query

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/soif"
)

// oracleToSOIF is ToSOIF as it was, an object built attribute by
// attribute; soif.Marshal of it is the oracle of AppendSOIF.
func oracleToSOIF(q *Query) (*soif.Object, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	o := &soif.Object{Type: SQueryType, Attrs: make([]soif.Attribute, 0, 11)}
	o.Add("Version", Version)
	if q.Filter != nil {
		o.Add("FilterExpression", q.Filter.String())
	}
	if q.Ranking != nil {
		o.Add("RankingExpression", q.Ranking.String())
	}
	o.Add("DropStopWords", TF(q.DropStopWords))
	if q.DefaultAttrSet != "" {
		o.Add("DefaultAttributeSet", string(q.DefaultAttrSet))
	}
	if !q.DefaultLanguage.IsZero() {
		o.Add("DefaultLanguage", q.DefaultLanguage.String())
	}
	if len(q.Sources) > 0 {
		o.Add("Sources", strings.Join(q.Sources, " "))
	}
	if len(q.AnswerFields) > 0 {
		names := make([]string, len(q.AnswerFields))
		for i, f := range q.AnswerFields {
			names[i] = string(attr.Normalize(f))
		}
		o.Add("AnswerFields", strings.Join(names, " "))
	}
	if len(q.SortBy) > 0 {
		keys := make([]string, len(q.SortBy))
		for i, k := range q.SortBy {
			dir := "d"
			if k.Ascending {
				dir = "a"
			}
			keys[i] = string(k.Field) + " " + dir
		}
		o.Add("SortByFields", strings.Join(keys, " "))
	}
	if q.MinScore != 0 {
		o.Add("MinDocumentScore", strconv.FormatFloat(q.MinScore, 'g', -1, 64))
	}
	if q.MaxResults != 0 {
		o.Add("MaxNumberDocuments", strconv.Itoa(q.MaxResults))
	}
	return o, nil
}

// requireEncoderMatchesOracle: q's AppendSOIF bytes are soif.Marshal of
// its oracle object, appended after whatever dst held, or both fail; and
// ToSOIF is the oracle object.
func requireEncoderMatchesOracle(t *testing.T, q *Query) {
	t.Helper()
	o, oerr := oracleToSOIF(q)
	var want []byte
	if oerr == nil {
		var err error
		if want, err = soif.Marshal(o); err != nil {
			t.Fatalf("oracle: %v", err)
		}
	}
	got, err := q.AppendSOIF([]byte("prefix"))
	if (err == nil) != (oerr == nil) {
		t.Fatalf("AppendSOIF error %v, oracle %v", err, oerr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendSOIF wrote\n%s\noracle\n%s", got[len("prefix"):], want)
	}
	back, err := q.ToSOIF()
	if err != nil {
		t.Fatal(err)
	}
	if data, err := soif.Marshal(back); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("ToSOIF marshals to (%v)\n%s\noracle\n%s", err, data, want)
	}
}

// variants are queries around e: as filter, as ranking or both, with
// every result specification the encoder prints, and with none.
func variants(e Expr, ranking bool) []*Query {
	full := New()
	full.Sources = []string{"src-1", "src-2"}
	full.AnswerFields = []attr.Field{"Title", attr.FieldAuthor, attr.FieldLinkage}
	full.SortBy = []SortKey{{Field: attr.FieldDateLastModified, Ascending: true}, {Field: ScoreSortField}}
	full.MinScore, full.MaxResults = 0.125, 7
	full.DefaultLanguage = lang.MustParseTag("es")
	bare := &Query{DropStopWords: false, MinScore: 1e-9}
	out := []*Query{New(), full, bare}
	for _, q := range out {
		if ranking {
			q.Ranking = e
		} else {
			q.Filter = e
		}
	}
	both := *full
	both.Filter, both.Ranking = e, e
	return append(out, &both)
}

// TestQueryEncoderMatchesOracle holds AppendSOIF to the object encoder it
// replaced over the paper's Examples 1–7: the expressions, each as a
// filter and as a ranking, and the Example 6 query whole.
func TestQueryEncoderMatchesOracle(t *testing.T) {
	requireEncoderMatchesOracle(t, paperExample6Query(t))
	for _, src := range paperExpressions {
		for _, ranking := range []bool{false, true} {
			e, err := ParseRanking(src)
			if !ranking {
				e, err = ParseFilter(src)
			}
			if err != nil {
				continue
			}
			for _, q := range variants(e, ranking) {
				requireEncoderMatchesOracle(t, q)
			}
		}
	}
}

var sinkBytes []byte

// TestMarshalAllocations: encoding Example 6, a filtered and ranked
// query, is one allocation, its bytes (the object encoder took 12).
func TestMarshalAllocations(t *testing.T) {
	q := paperExample6Query(t)
	got := testing.AllocsPerRun(100, func() {
		var err error
		if sinkBytes, err = q.Marshal(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("Marshal of Example 6: %v allocations, budget 1", got)
	}
}
