package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/source"
)

// regionalBroker builds a one-source regional metasearcher around docs,
// wraps it as a broker Conn and serves it over HTTP via NewConns.
func regionalBroker(t *testing.T, brokerID, sourceID string, docs []*index.Document, opts ...Option) *httptest.Server {
	t.Helper()
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New(sourceID, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddAll(docs); err != nil {
		t.Fatal(err)
	}
	ms := core.New(core.Options{Timeout: 5 * time.Second})
	t.Cleanup(ms.Close)
	ms.Add(client.NewLocalConn(src, nil))
	broker, err := ms.NewBroker(brokerID)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Config.Handler = NewConns([]client.Conn{broker}, ts.URL, opts...)
	t.Cleanup(ts.Close)
	return ts
}

func rankingQuery(t testing.TB, src string) *query.Query {
	t.Helper()
	q := query.New()
	r, err := query.ParseRanking(src)
	if err != nil {
		t.Fatal(err)
	}
	q.Ranking = r
	return q
}

// TestZBrokerRouting is the ZBroker scenario end to end: two regional
// metasearchers publish themselves as STARTS sources via NewConns, a
// front metasearcher discovers both, and its GlOSS selector routes each
// query to the one region whose served summary carries the terms —
// rank-merging that region's answer, never contacting the other.
func TestZBrokerRouting(t *testing.T) {
	dbDocs := []*index.Document{
		{Linkage: "http://db/1", Title: "Distributed databases", Body: "Distributed database systems and query processing.", Date: time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Linkage: "http://db/2", Title: "Query optimization", Body: "Cost models for database query optimizers.", Date: time.Date(1995, 6, 1, 0, 0, 0, 0, time.UTC)},
	}
	gardenDocs := []*index.Document{
		{Linkage: "http://g/1", Title: "Gardening", Body: "Compost heaps and mulch for vegetable beds.", Date: time.Date(1994, 1, 1, 0, 0, 0, 0, time.UTC)},
	}
	east := regionalBroker(t, "region-east", "East-DB", dbDocs)
	west := regionalBroker(t, "region-west", "West-Garden", gardenDocs)

	ctx := context.Background()
	front := core.New(core.Options{Timeout: 5 * time.Second, MaxSources: 1})
	t.Cleanup(front.Close)
	for _, ts := range []*httptest.Server{east, west} {
		conns, err := client.NewClient(nil).Discover(ctx, ts.URL+"/resource")
		if err != nil {
			t.Fatalf("Discover %s: %v", ts.URL, err)
		}
		for _, c := range conns {
			front.Add(c)
		}
	}

	ans, err := front.Search(ctx, rankingQuery(t, `list((body-of-text "compost"))`))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(ans.Contacted) != 1 || ans.Contacted[0] != "region-west" {
		t.Fatalf("compost query contacted %v, want exactly region-west", ans.Contacted)
	}
	if len(ans.Documents) == 0 || ans.Documents[0].Linkage() != "http://g/1" {
		t.Fatalf("compost answer = %+v, want the gardening doc first", ans.Documents)
	}

	ans, err = front.Search(ctx, rankingQuery(t, `list((body-of-text "databases"))`))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(ans.Contacted) != 1 || ans.Contacted[0] != "region-east" {
		t.Fatalf("databases query contacted %v, want exactly region-east", ans.Contacted)
	}
	for _, d := range ans.Documents {
		if d.Linkage() == "http://g/1" {
			t.Fatal("databases answer leaked a gardening doc")
		}
	}
}

// TestConnServerBatchEndpoint pins HTTPConn.QueryBatch against a served
// broker: one query-route call per item, answers index-aligned, and an
// item with no match is an empty answer, not an error.
func TestConnServerBatchEndpoint(t *testing.T) {
	ts := regionalBroker(t, "region-b", "B-Src", []*index.Document{
		{Linkage: "http://b/1", Title: "Databases", Body: "database systems", Date: time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)},
	})
	ctx := context.Background()
	conns, err := client.NewClient(nil).Discover(ctx, ts.URL+"/resource")
	if err != nil {
		t.Fatal(err)
	}
	hc, ok := conns[0].(*client.HTTPConn)
	if !ok {
		t.Fatalf("Discover returned %T", conns[0])
	}
	qs := []*query.Query{
		rankingQuery(t, `list((body-of-text "database"))`),
		rankingQuery(t, `list((body-of-text "nothing-matches-this"))`),
	}
	results, errs := hc.QueryBatch(ctx, qs)
	if errs[0] != nil {
		t.Fatalf("batch item 0: %v", errs[0])
	}
	if len(results[0].Documents) == 0 {
		t.Fatal("batch item 0 returned no documents")
	}
	if errs[1] != nil {
		t.Fatalf("batch item 1: %v", errs[1])
	}
}

// sampleCounter is an http.RoundTripper that counts requests for a
// sample route.
type sampleCounter struct{ n atomic.Int64 }

func (c *sampleCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/sample") {
		c.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestServedSampleURL: served metadata names the server's sample route
// only for a conn whose own metadata names sample-database results. A
// broker names none, so a harvester is never pointed at a route that
// fails, and HTTPConn.Sample refuses it without a request; a served
// source keeps its URL, and its samples come back.
func TestServedSampleURL(t *testing.T) {
	ctx := context.Background()
	var counter sampleCounter
	c := client.NewClient(&http.Client{Timeout: 5 * time.Second, Transport: &counter})
	discover := func(url string) client.Conn {
		t.Helper()
		conns, err := c.Discover(ctx, url+"/resource")
		if err != nil || len(conns) == 0 {
			t.Fatalf("Discover %s: %v, %d conns", url, err, len(conns))
		}
		return conns[0]
	}

	broker := discover(regionalBroker(t, "region-s", "S-Src", []*index.Document{
		{Linkage: "http://s/1", Title: "Databases", Body: "database systems", Date: time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)},
	}).URL)
	md, err := broker.Metadata(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if md.SampleDatabaseResults != "" {
		t.Errorf("served broker names SampleDatabaseResults %q", md.SampleDatabaseResults)
	}
	if _, err := broker.Sample(ctx); err == nil {
		t.Error("Sample of a broker that names no sample results succeeded")
	}
	if n := counter.n.Load(); n != 0 {
		t.Errorf("Sample of a broker made %d sample requests, want 0", n)
	}

	ts, _ := startTestServer(t)
	src := discover(ts.URL)
	md, err = src.Metadata(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := ts.URL + "/sources/" + src.SourceID() + "/sample"; md.SampleDatabaseResults != want {
		t.Errorf("served source names SampleDatabaseResults %q, want %q", md.SampleDatabaseResults, want)
	}
	if entries, err := src.Sample(ctx); err != nil || len(entries) == 0 {
		t.Errorf("served source's samples: %d entries, %v", len(entries), err)
	}
	if n := counter.n.Load(); n != 1 {
		t.Errorf("%d sample requests, want the source's 1", n)
	}
}
