package starts_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"starts"
)

// TestPublicAPIWalkthrough drives the whole paper workflow through the
// public facade only: build heterogeneous sources, serve them over HTTP,
// discover, harvest, query with the paper's Example 1 expressions, and
// merge.
func TestPublicAPIWalkthrough(t *testing.T) {
	// Two engines with different capabilities.
	vec, err := starts.NewVectorEngine()
	if err != nil {
		t.Fatal(err)
	}
	boolean, err := starts.NewBooleanEngine()
	if err != nil {
		t.Fatal(err)
	}

	db, err := starts.NewSource("db-papers", vec)
	if err != nil {
		t.Fatal(err)
	}
	web, err := starts.NewSource("web-pages", boolean)
	if err != nil {
		t.Fatal(err)
	}
	docs := []*starts.Document{
		{
			Linkage: "http://db/dood.ps",
			Title:   "A Comparison Between Deductive and Object-Oriented Database Systems",
			Authors: []string{"Jeffrey D. Ullman"},
			Body:    "Deductive databases and distributed evaluation of databases.",
			Date:    time.Date(1995, 6, 1, 0, 0, 0, 0, time.UTC),
		},
		{
			Linkage: "http://db/lagunita.ps",
			Title:   "Database Research: Achievements and Opportunities",
			Authors: []string{"Avi Silberschatz", "Jeff Ullman"},
			Body:    "Distributed databases and distributed systems research databases.",
			Date:    time.Date(1996, 9, 15, 0, 0, 0, 0, time.UTC),
		},
	}
	for _, d := range docs {
		if err := db.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := web.Add(&starts.Document{
		Linkage: "http://web/page.html", Title: "Databases on the web",
		Body: "A page about distributed databases.",
		Date: time.Date(1996, 2, 2, 0, 0, 0, 0, time.UTC),
	}); err != nil {
		t.Fatal(err)
	}

	// Serve both behind one resource over HTTP.
	res := starts.NewResource()
	if err := res.Add(db); err != nil {
		t.Fatal(err)
	}
	if err := res.Add(web); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(nil)
	defer ts.Close()
	ts.Config.Handler = starts.NewServer(res, ts.URL)

	// Metasearch over the wire.
	ctx := context.Background()
	c := starts.NewClient(ts.Client())
	conns, err := c.Discover(ctx, ts.URL+"/resource")
	if err != nil {
		t.Fatal(err)
	}
	ms := starts.NewMetasearcher(starts.MetasearcherOptions{
		Selector: starts.SelectVSum,
		Merger:   starts.MergeTermStats,
	})
	for _, conn := range conns {
		ms.Add(conn)
	}
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}

	// The paper's Example 1 query.
	q := starts.NewQuery()
	if q.Filter, err = starts.ParseFilter(`((author "Ullman") and (title "databases"))`); err != nil {
		t.Fatal(err)
	}
	if q.Ranking, err = starts.ParseRanking(`list((body-of-text "distributed") (body-of-text "databases"))`); err != nil {
		t.Fatal(err)
	}
	answer, err := ms.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Documents) != 2 {
		t.Fatalf("documents = %d, want the two Ullman papers", len(answer.Documents))
	}
	if answer.Documents[0].Linkage() != "http://db/lagunita.ps" {
		t.Errorf("top doc = %s", answer.Documents[0].Linkage())
	}
	for _, d := range answer.Documents {
		if d.Linkage() == "" || d.Title() == "" {
			t.Errorf("answer fields incomplete: %v", d.Fields)
		}
		if len(d.TermStats) == 0 {
			t.Errorf("TermStats missing for %s", d.Linkage())
		}
	}
	// The Boolean source was contacted and reports a lossy translation.
	if oc := answer.PerSource["web-pages"]; oc != nil {
		if oc.Report == nil || oc.Report.Clean() {
			t.Error("boolean source should report lossy translation")
		}
	}
	if starts.Version != "STARTS 1.0" {
		t.Errorf("Version = %q", starts.Version)
	}
}

// TestFacadeMergersAndSelectors sanity-checks the exported strategy values.
func TestFacadeMergersAndSelectors(t *testing.T) {
	for _, sel := range []starts.Selector{starts.SelectVSum, starts.SelectVMax, starts.SelectBGloss} {
		if sel.Name() == "" {
			t.Error("selector with empty name")
		}
	}
	names := map[string]bool{}
	for _, m := range []starts.MergeStrategy{
		starts.MergeRawScore, starts.MergeScaled, starts.MergeRoundRobin, starts.MergeTermStats,
	} {
		if m.Name() == "" || names[m.Name()] {
			t.Errorf("merge strategy name invalid or duplicated: %q", m.Name())
		}
		names[m.Name()] = true
	}
}

// TestFacadeQueryHelpers covers the parse helpers and defaults.
func TestFacadeQueryHelpers(t *testing.T) {
	q := starts.NewQuery()
	if !q.DropStopWords || q.EffectiveMaxResults() <= 0 {
		t.Errorf("defaults wrong: %+v", q)
	}
	if _, err := starts.ParseFilter(`(title "x")`); err != nil {
		t.Errorf("ParseFilter: %v", err)
	}
	if _, err := starts.ParseRanking(`list("x")`); err != nil {
		t.Errorf("ParseRanking: %v", err)
	}
	if _, err := starts.ParseFilter(`list("x")`); err == nil {
		t.Error("filter accepted list")
	}
	e, err := starts.NewEngine(starts.EngineConfig{})
	if err == nil || e != nil {
		t.Error("empty engine config accepted")
	}
	if _, err := starts.NewSource("bad id", nil); err == nil {
		t.Error("bad source args accepted")
	}
}

// TestFacadeSOIFInterop checks that facade types expose the SOIF layer
// (marshal a query, read it back).
func TestFacadeSOIFInterop(t *testing.T) {
	q := starts.NewQuery()
	var err error
	if q.Ranking, err = starts.ParseRanking(`list((body-of-text "databases"))`); err != nil {
		t.Fatal(err)
	}
	data, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "@SQuery{") {
		t.Errorf("not SOIF:\n%s", data)
	}
}

// TestFacadeWrappersAreBatchConns: every conn the facade's wrappers
// return — including NewFaultyConn, which soak tests build their fleets
// from — has QueryBatch, so wrapping never changes which path the
// metasearcher's dispatcher takes, and an injected fault fails the whole
// batch as one wire call.
func TestFacadeWrappersAreBatchConns(t *testing.T) {
	eng, err := starts.NewVectorEngine()
	if err != nil {
		t.Fatal(err)
	}
	src, err := starts.NewSource("S", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Add(&starts.Document{Linkage: "http://s/1", Title: "t", Body: "databases"}); err != nil {
		t.Fatal(err)
	}
	leaf := starts.NewLocalConn(src, nil)
	fc := starts.NewFaultyConn(leaf, starts.FaultConfig{})
	for name, c := range map[string]starts.Conn{
		"NewFaultyConn": fc,
		"NewRetryConn":  starts.NewRetryConn(leaf, starts.RetryPolicy{}, nil),
		"WrapConn":      starts.WrapConn(leaf, starts.NewMetricsRegistry()),
		"ChainConn": starts.ChainConn(leaf,
			starts.FaultyMiddleware(starts.FaultConfig{}),
			starts.RetryMiddleware(starts.RetryPolicy{}, nil),
			starts.CacheMiddleware(starts.NewQueryCache(starts.QueryCacheConfig{})),
			starts.ObserveMiddleware(starts.NewMetricsRegistry())),
	} {
		if _, ok := c.(starts.BatchConn); !ok {
			t.Errorf("%s returned %T, which is not a BatchConn", name, c)
		}
	}

	q := starts.NewQuery()
	q.Ranking, _ = starts.ParseRanking(`list((body-of-text "databases"))`)
	var bc starts.BatchConn = fc
	rs, errs := bc.QueryBatch(context.Background(), []*starts.Query{q, q})
	if len(rs) != 2 || errs[0] != nil || errs[1] != nil || len(rs[0].Documents) != 1 {
		t.Fatalf("healthy batch = %v, %v", rs, errs)
	}
	fc.SetFailing(true)
	_, errs = bc.QueryBatch(context.Background(), []*starts.Query{q, q})
	if errs[0] == nil || errs[1] == nil {
		t.Errorf("failing batch errors = %v, want every item failed", errs)
	}
	if got := fc.Calls(); got != 2 {
		t.Errorf("injector decided %d calls, want 2 (one per wire call, not per item)", got)
	}
}
