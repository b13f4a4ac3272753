package source

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/meta"
	"starts/internal/query"
)

func docsA() []*index.Document {
	return []*index.Document{
		{
			Linkage: "http://a/1", Title: "Distributed database systems",
			Authors: []string{"Jeffrey Ullman"},
			Body:    "Distributed databases and their query processors.",
			Date:    time.Date(1995, 3, 1, 0, 0, 0, 0, time.UTC),
		},
		{
			Linkage: "http://shared/doc", Title: "Shared survey of metasearch",
			Authors: []string{"Luis Gravano"},
			Body:    "Metasearchers choose sources, evaluate queries and merge ranks.",
			Date:    time.Date(1996, 4, 1, 0, 0, 0, 0, time.UTC),
		},
	}
}

func docsB() []*index.Document {
	return []*index.Document{
		{
			Linkage: "http://b/1", Title: "Gardening for systems researchers",
			Authors: []string{"Green Thumb"},
			Body:    "Tomatoes, pruning, compost and distributed irrigation.",
			Date:    time.Date(1994, 7, 1, 0, 0, 0, 0, time.UTC),
		},
		{
			Linkage: "http://shared/doc", Title: "Shared survey of metasearch",
			Authors: []string{"Luis Gravano"},
			Body:    "Metasearchers choose sources, evaluate queries and merge ranks.",
			Date:    time.Date(1996, 4, 1, 0, 0, 0, 0, time.UTC),
		},
	}
}

func newSource(t *testing.T, id string, cfg engine.Config, docs []*index.Document) *Source {
	t.Helper()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(id, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddAll(docs); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	eng, _ := engine.New(engine.NewVectorConfig())
	if _, err := New("", eng); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := New("has space", eng); err == nil {
		t.Error("id with whitespace accepted")
	}
	if _, err := New("ok", nil); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestSearchStampsSource(t *testing.T) {
	s := newSource(t, "Source-1", engine.NewVectorConfig(), docsA())
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((any "distributed"))`)
	res, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sources) != 1 || res.Sources[0] != "Source-1" {
		t.Errorf("result sources = %v", res.Sources)
	}
	for _, d := range res.Documents {
		if len(d.Sources) != 1 || d.Sources[0] != "Source-1" {
			t.Errorf("doc sources = %v", d.Sources)
		}
	}
}

// TestMetadataGeneration checks that a source's generated metadata has
// every required MBasic-1 attribute and matches the engine's profile.
func TestMetadataGeneration(t *testing.T) {
	s := newSource(t, "Source-1", engine.NewVectorConfig(), docsA())
	s.SetName("Stanford DB Group")
	s.Languages = []lang.Tag{lang.EnglishUS}
	s.Changed = time.Date(1996, 3, 31, 0, 0, 0, 0, time.UTC)

	m := s.Metadata()
	if m.SourceID != "Source-1" || m.SourceName != "Stanford DB Group" {
		t.Errorf("identity = %q %q", m.SourceID, m.SourceName)
	}
	if m.QueryParts != meta.PartsBoth {
		t.Errorf("QueryParts = %q", m.QueryParts)
	}
	if m.RankingAlgorithmID != "Acme-1" {
		t.Errorf("RankingAlgorithmID = %q", m.RankingAlgorithmID)
	}
	if m.ScoreMin != 0 || m.ScoreMax != 1 {
		t.Errorf("ScoreRange = %g %g", m.ScoreMin, m.ScoreMax)
	}
	if !m.TurnOffStopWords {
		t.Error("TurnOffStopWords should be true for the vector profile")
	}
	if len(m.StopWords) == 0 {
		t.Error("StopWordList empty")
	}
	if m.Linkage != "starts://Source-1/query" {
		t.Errorf("Linkage = %q", m.Linkage)
	}
	if m.ContentSummaryLinkage != "starts://Source-1/summary" {
		t.Errorf("ContentSummaryLinkage = %q", m.ContentSummaryLinkage)
	}
	if m.SampleDatabaseResults != "starts://Source-1/sample" {
		t.Errorf("SampleDatabaseResults = %q", m.SampleDatabaseResults)
	}
	if !m.SupportsField(attr.FieldAuthor) || !m.SupportsField(attr.FieldTitle) {
		t.Error("field support lost in metadata")
	}
	if !m.SupportsModifier(attr.ModStem) {
		t.Error("modifier support lost in metadata")
	}
	if !m.AllowsCombination(attr.FieldAuthor, attr.ModStem) {
		t.Error("combination support lost in metadata")
	}
	if m.AllowsCombination(attr.FieldTitle, attr.ModGT) {
		t.Error("> on title should not be a legal combination")
	}
	if len(m.Tokenizers) != 1 || m.Tokenizers[0].ID == "" {
		t.Errorf("tokenizers = %+v", m.Tokenizers)
	}
	// The metadata object round trips through SOIF.
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := meta.ParseMeta(data); err != nil {
		t.Fatalf("generated metadata does not reparse: %v", err)
	}
}

// TestContentSummaryGeneration is the generation half of experiment X1:
// the summary reflects the engine's analyzer, has a group per field, and
// true document frequencies.
func TestContentSummaryGeneration(t *testing.T) {
	s := newSource(t, "Source-1", engine.NewVectorConfig(), docsA())
	c := s.ContentSummary()
	if c.NumDocs != 2 {
		t.Errorf("NumDocs = %d", c.NumDocs)
	}
	if !c.Stemming {
		t.Error("stemming engine must report a stemmed summary")
	}
	if !c.StopWordsIncluded || !c.FieldsQualified || c.CaseSensitive {
		t.Errorf("flags = %+v", c)
	}
	// "distributed" stems to "distribut"; both docsA bodies contain it...
	// doc 2 body has "distributed"? No: only doc 1. DocFreq must be 1 in
	// body-of-text.
	if df := c.DocFreq(attr.FieldBodyOfText, lang.Tag{}, "distribut"); df != 1 {
		t.Errorf("DocFreq(distribut) = %d", df)
	}
	// Stop words appear in the summary.
	if _, ok := c.Lookup(attr.FieldBodyOfText, lang.Tag{}, "and"); !ok {
		t.Error("stop word missing from summary")
	}
	// Round trip.
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := meta.ParseSummary(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalTerms() != c.TotalTerms() {
		t.Errorf("summary round trip: %d != %d terms", back.TotalTerms(), c.TotalTerms())
	}
}

// TestContentSummaryReadsOneIndex builds summaries while documents that
// all hold one word are being added: each summary's N and that word's df
// come from one collection, so they are equal.
func TestContentSummaryReadsOneIndex(t *testing.T) {
	s := newSource(t, "Source-1", engine.NewVectorConfig(), nil)
	const docs = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range docs {
			if err := s.Add(&index.Document{Linkage: fmt.Sprintf("http://x/%d", i), Body: "omega"}); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		c := s.ContentSummary()
		if df := c.DocFreq(attr.FieldBodyOfText, lang.Tag{}, "omega"); df != c.NumDocs {
			t.Fatalf("a summary of %d documents says %d hold the word they all hold", c.NumDocs, df)
		}
	}
	if c := s.ContentSummary(); c.NumDocs != docs {
		t.Errorf("NumDocs = %d after %d Adds", c.NumDocs, docs)
	}
}

// TestContentSummaryBuiltOncePerIndex: a second harvest of an unchanged
// source returns the summary the first built and allocates nothing; after
// an Add, the next harvest gets a new summary with the new N, and the old
// one still says what it said.
func TestContentSummaryBuiltOncePerIndex(t *testing.T) {
	s := newSource(t, "Source-1", engine.NewVectorConfig(), docsA())
	c := s.ContentSummary()
	if allocs := testing.AllocsPerRun(100, func() { s.ContentSummary() }); allocs != 0 {
		t.Errorf("a second ContentSummary allocates %.0f times", allocs)
	}
	if s.ContentSummary() != c {
		t.Error("a second ContentSummary returned another summary")
	}
	if err := s.Add(docsB()[0]); err != nil {
		t.Fatal(err)
	}
	if next := s.ContentSummary(); next == c || next.NumDocs != 3 || c.NumDocs != 2 {
		t.Errorf("after an Add: summary of %d documents (the same one: %v), the old one of %d", next.NumDocs, next == c, c.NumDocs)
	}
}

// TestSampleResults is experiment X8's substrate: every source produces
// results for the same known collection and queries; incompatible scorers
// produce incompatible scores for identical content.
func TestSampleResults(t *testing.T) {
	s1 := newSource(t, "S1", engine.NewVectorConfig(), docsA())
	cfgTopK := engine.NewVectorConfig()
	cfgTopK.Scorer = engine.TopK{}
	s2 := newSource(t, "S2", cfgTopK, docsA())

	e1, err := s1.SampleResults()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s2.SampleResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != len(SampleQueries()) || len(e1) != len(e2) {
		t.Fatalf("entries = %d, %d", len(e1), len(e2))
	}
	// Same collection, same query, same top document — different scores.
	if len(e1[0].Results.Documents) == 0 || len(e2[0].Results.Documents) == 0 {
		t.Fatal("sample queries returned nothing")
	}
	top1, top2 := e1[0].Results.Documents[0], e2[0].Results.Documents[0]
	if top1.Linkage() != top2.Linkage() {
		t.Errorf("same ranking algorithm family should agree on top doc: %s vs %s", top1.Linkage(), top2.Linkage())
	}
	if top2.RawScore != 1000 {
		t.Errorf("TopK top score = %g", top2.RawScore)
	}
	if top1.RawScore >= 1 {
		t.Errorf("TFIDF top score = %g", top1.RawScore)
	}

	// The sample stream round trips.
	data, err := AppendSample(nil, e1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSample(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(e1) {
		t.Errorf("parsed %d entries, want %d", len(back), len(e1))
	}
	if back[0].Results.Documents[0].Linkage() != top1.Linkage() {
		t.Error("sample round trip changed results")
	}
}

func TestParseSampleErrors(t *testing.T) {
	if _, err := ParseSample(nil); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ParseSample([]byte("@SQResults{\n}\n")); err == nil {
		t.Error("stream starting with results accepted")
	}
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list("x")`)
	qb, _ := q.Marshal()
	if _, err := ParseSample(qb); err == nil {
		t.Error("query without results accepted")
	}
}

// TestFigure1Model is experiment E4: a query submitted to Source-1 naming
// Source-2 is evaluated at both, and the shared document appears once,
// listing both sources.
func TestFigure1Model(t *testing.T) {
	r := NewResource()
	s1 := newSource(t, "Source-1", engine.NewVectorConfig(), docsA())
	s2 := newSource(t, "Source-2", engine.NewVectorConfig(), docsB())
	if err := r.Add(s1); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(s2); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(s1); err == nil {
		t.Error("duplicate source accepted")
	}

	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((any "metasearchers") (any "distributed"))`)
	q.Sources = []string{"Source-2"}
	res, err := r.Search("Source-1", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sources) != 2 {
		t.Errorf("result sources = %v", res.Sources)
	}
	var shared *int
	seen := map[string]int{}
	for i, d := range res.Documents {
		seen[d.Linkage()]++
		if d.Linkage() == "http://shared/doc" {
			i := i
			shared = &i
		}
	}
	for url, n := range seen {
		if n > 1 {
			t.Errorf("duplicate document %s appears %d times", url, n)
		}
	}
	if shared == nil {
		t.Fatal("shared document missing")
	}
	d := res.Documents[*shared]
	if len(d.Sources) != 2 {
		t.Errorf("shared doc sources = %v", d.Sources)
	}

	// Unknown sources are rejected.
	if _, err := r.Search("nope", q); err == nil {
		t.Error("unknown target accepted")
	}
	q2 := query.New()
	q2.Ranking, _ = query.ParseRanking(`list("x")`)
	q2.Sources = []string{"nope"}
	if _, err := r.Search("Source-1", q2); err == nil {
		t.Error("unknown extra source accepted")
	}
	if ids := r.SourceIDs(); len(ids) != 2 || ids[0] != "Source-1" {
		t.Errorf("SourceIDs = %v", ids)
	}
	if _, ok := r.Source("Source-2"); !ok {
		t.Error("Source lookup failed")
	}
}

// TestResourceSearchKeepsBestCopysLength: when a linkage held by two
// sources takes the higher-scoring copy's score and term statistics, it
// takes that copy's size and token count too, so every term frequency is
// reported over the length it was counted in.
func TestResourceSearchKeepsBestCopysLength(t *testing.T) {
	long := &index.Document{
		Linkage: "http://shared/doc", Title: "Shared survey",
		Body: "Metasearchers choose sources. " + strings.Repeat("Sources hold documents about many other subjects. ", 40),
	}
	short := &index.Document{Linkage: "http://shared/doc", Title: "Shared survey", Body: "Metasearchers merge."}
	r := NewResource()
	s1 := newSource(t, "Source-1", engine.NewVectorConfig(), []*index.Document{long})
	s2 := newSource(t, "Source-2", engine.NewVectorConfig(), []*index.Document{short})
	for _, s := range []*Source{s1, s2} {
		if err := r.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((any "metasearchers"))`)
	first, err := s1.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s2.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Documents) != 1 || len(second.Documents) != 1 {
		t.Fatalf("answers hold %d and %d documents, want 1 each", len(first.Documents), len(second.Documents))
	}
	a, b := first.Documents[0], second.Documents[0]
	if b.RawScore <= a.RawScore || a.Count == b.Count {
		t.Fatalf("copies score %v, %v over %d, %d tokens: want the shorter second copy to score higher", a.RawScore, b.RawScore, a.Count, b.Count)
	}
	q.Sources = []string{"Source-2"}
	res, err := r.Search("Source-1", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Documents) != 1 {
		t.Fatalf("merged answer holds %d documents, want 1", len(res.Documents))
	}
	d := res.Documents[0]
	if d.RawScore != b.RawScore || d.Size != b.Size || d.Count != b.Count {
		t.Errorf("merged copy: score %v size %d count %d, want the second copy's %v, %d, %d",
			d.RawScore, d.Size, d.Count, b.RawScore, b.Size, b.Count)
	}
	if len(d.TermStats) != 1 || len(b.TermStats) != 1 || d.TermStats[0] != b.TermStats[0] {
		t.Errorf("merged copy's term statistics %v, want the second copy's %v", d.TermStats, b.TermStats)
	}
}
