package merge

import (
	"math"
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
)

func doc(url string, score float64, stats ...result.TermStat) *result.Document {
	return &result.Document{
		RawScore:  score,
		Fields:    []result.FieldValue{{Field: attr.FieldLinkage, Value: url}},
		TermStats: stats,
		Count:     10000,
	}
}

func stat(field attr.Field, term string, tf int, w float64, df int) result.TermStat {
	t := query.NewTerm(field, lang.L(term))
	return result.TermStat{Term: &t, Freq: tf, Weight: w, DocFreq: df}
}

func metaWithRange(lo, hi float64) *meta.SourceMeta {
	return &meta.SourceMeta{ScoreMin: lo, ScoreMax: hi}
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

func urls(docs []*result.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Linkage()
	}
	return out
}

// paperExample9Inputs reconstructs the paper's Examples 8 and 9: Source-1
// returns dood.ps with raw score 0.82, Source-2 returns lagunita.ps with
// raw score 0.27 but much richer term statistics.
func paperExample9Inputs() []SourceResult {
	d1 := doc("http://www-db.stanford.edu/~ullman/pub/dood.ps", 0.82,
		stat(attr.FieldBodyOfText, "distributed", 10, 0.31, 190),
		stat(attr.FieldBodyOfText, "databases", 15, 0.51, 232))
	d1.Count = 10213
	d1.Sources = []string{"Source-1"}
	d2 := doc("http://elib.stanford.edu/lagunita.ps", 0.27,
		stat(attr.FieldBodyOfText, "distributed", 20, 0.12, 901),
		stat(attr.FieldBodyOfText, "databases", 34, 0.15, 788))
	d2.Count = 9031
	d2.Sources = []string{"Source-2"}
	return []SourceResult{
		{
			SourceID: "Source-1",
			Meta:     metaWithRange(0, 1),
			Summary:  &meta.ContentSummary{NumDocs: 892},
			Results:  &result.Results{Sources: []string{"Source-1"}, Documents: []*result.Document{d1}},
		},
		{
			SourceID: "Source-2",
			Meta:     metaWithRange(0, 1),
			Summary:  &meta.ContentSummary{NumDocs: 1500},
			Results:  &result.Results{Sources: []string{"Source-2"}, Documents: []*result.Document{d2}},
		},
	}
}

// TestPaperExample9Rerank is experiment E8's merging half: a raw-score
// merge ranks the Source-1 document first (0.82 > 0.27), while the
// TermStats re-ranking of Example 9 — recomputing scores from term
// frequencies — puts the Source-2 document first.
func TestPaperExample9Rerank(t *testing.T) {
	q := rankQuery(t, `list((body-of-text "distributed") (body-of-text "databases"))`)
	inputs := paperExample9Inputs()

	raw := (RawScore{}).Merge(q, inputs)
	if raw[0].Linkage() != "http://www-db.stanford.edu/~ullman/pub/dood.ps" {
		t.Errorf("raw-score order = %v", urls(raw))
	}

	ts := (TermStats{}).Merge(q, inputs)
	if ts[0].Linkage() != "http://elib.stanford.edu/lagunita.ps" {
		t.Errorf("term-stats order = %v (the paper's re-rank puts lagunita first)", urls(ts))
	}
}

func TestScaledNormalizesRanges(t *testing.T) {
	// Source A scores in [0,1], source B in [0,1000] (top doc = 1000).
	q := rankQuery(t, `list((any "x"))`)
	inputs := []SourceResult{
		{SourceID: "A", Meta: metaWithRange(0, 1), Results: &result.Results{
			Documents: []*result.Document{doc("http://a/best", 0.9), doc("http://a/ok", 0.5)},
		}},
		{SourceID: "B", Meta: metaWithRange(0, 1000), Results: &result.Results{
			Documents: []*result.Document{doc("http://b/best", 1000), doc("http://b/meh", 200)},
		}},
	}
	raw := (RawScore{}).Merge(q, inputs)
	// Raw: B's 1000 and 200 crush A's 0.9.
	if raw[0].Linkage() != "http://b/best" || raw[1].Linkage() != "http://b/meh" {
		t.Errorf("raw order = %v", urls(raw))
	}
	scaled := (Scaled{}).Merge(q, inputs)
	// Scaled: 1.0 (b/best), 0.9 (a/best), 0.5 (a/ok), 0.2 (b/meh).
	want := []string{"http://b/best", "http://a/best", "http://a/ok", "http://b/meh"}
	got := urls(scaled)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scaled order = %v, want %v", got, want)
		}
	}
}

func TestScaledFallsBackOnUnboundedRange(t *testing.T) {
	q := rankQuery(t, `list((any "x"))`)
	inputs := []SourceResult{
		{SourceID: "inf", Meta: metaWithRange(0, math.Inf(1)), Results: &result.Results{
			Documents: []*result.Document{doc("http://i/1", 50), doc("http://i/2", 25)},
		}},
		{SourceID: "unit", Meta: metaWithRange(0, 1), Results: &result.Results{
			Documents: []*result.Document{doc("http://u/1", 0.6)},
		}},
	}
	got := urls((Scaled{}).Merge(q, inputs))
	// inf source normalizes by its observed max (50): 1.0, 0.5.
	want := []string{"http://i/1", "http://u/1", "http://i/2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	// Missing metadata also falls back to observed max.
	inputs[0].Meta = nil
	got2 := urls((Scaled{}).Merge(q, inputs))
	if got2[0] != "http://i/1" {
		t.Errorf("no-meta order = %v", got2)
	}
}

func TestRoundRobinInterleaves(t *testing.T) {
	q := rankQuery(t, `list((any "x"))`)
	inputs := []SourceResult{
		{SourceID: "A", Results: &result.Results{Documents: []*result.Document{
			doc("http://a/1", 3), doc("http://a/2", 2), doc("http://a/3", 1),
		}}},
		{SourceID: "B", Results: &result.Results{Documents: []*result.Document{
			doc("http://b/1", 999),
		}}},
	}
	got := urls((RoundRobin{}).Merge(q, inputs))
	want := []string{"http://a/1", "http://b/1", "http://a/2", "http://a/3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin order = %v, want %v", got, want)
		}
	}
}

func TestFuseCollapsesDuplicates(t *testing.T) {
	q := rankQuery(t, `list((any "x"))`)
	a := doc("http://shared", 0.4)
	a.Sources = []string{"A"}
	b := doc("http://shared", 0.7)
	b.Sources = []string{"B"}
	inputs := []SourceResult{
		{SourceID: "A", Results: &result.Results{Documents: []*result.Document{a}}},
		{SourceID: "B", Results: &result.Results{Documents: []*result.Document{b}}},
	}
	got := (RawScore{}).Merge(q, inputs)
	if len(got) != 1 {
		t.Fatalf("duplicates not collapsed: %v", urls(got))
	}
	if got[0].RawScore != 0.7 {
		t.Errorf("kept score = %g, want the better 0.7", got[0].RawScore)
	}
	if len(got[0].Sources) != 2 {
		t.Errorf("sources = %v", got[0].Sources)
	}
}

func TestTermStatsLocalIDFVariant(t *testing.T) {
	q := rankQuery(t, `list((body-of-text "distributed") (body-of-text "databases"))`)
	inputs := paperExample9Inputs()
	local := TermStats{LocalIDF: true}
	if local.Name() == (TermStats{}).Name() {
		t.Error("variant names collide")
	}
	got := local.Merge(q, inputs)
	if len(got) != 2 {
		t.Fatalf("local-idf merge lost documents: %v", urls(got))
	}
	// With per-source document frequencies, the paper's Section 3.2
	// pathology reappears: the query words are common at Source-2 (df
	// 901/1500 and 788/1500), so its document's idf collapses and the
	// tf-poor Source-1 document wins again. This is exactly why the
	// global variant aggregates df across sources.
	if got[0].Linkage() != "http://www-db.stanford.edu/~ullman/pub/dood.ps" {
		t.Errorf("local-idf order = %v", urls(got))
	}
}

func TestTermStatsWeightedTerms(t *testing.T) {
	// Down-weighting "databases" to nearly zero should let a distributed-
	// heavy document win.
	q := rankQuery(t, `list(((body-of-text "distributed") 0.05) ((body-of-text "databases") 0.95))`)
	d1 := doc("http://x/dist", 0.5, stat(attr.FieldBodyOfText, "distributed", 50, 0.9, 10))
	d2 := doc("http://x/db", 0.5, stat(attr.FieldBodyOfText, "databases", 50, 0.9, 10))
	inputs := []SourceResult{{SourceID: "S", Summary: &meta.ContentSummary{NumDocs: 100},
		Results: &result.Results{Documents: []*result.Document{d1, d2}}}}
	got := (TermStats{}).Merge(q, inputs)
	if got[0].Linkage() != "http://x/db" {
		t.Errorf("weighted term-stats order = %v", urls(got))
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{RawScore{}, Scaled{}, RoundRobin{}, TermStats{}} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}
