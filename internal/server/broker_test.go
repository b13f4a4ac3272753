package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/peer"
	"starts/internal/qcache"
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

// TestConnServerBatchEndpoint pins the wire contract HTTPConn.QueryBatch
// depends on: a served broker's query-batch route accepts an @SQuery
// stream and answers index-aligned frames.
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

// TestServerPeerCacheRoutes pins the WithPeerCache mounting: the peer
// endpoints ride on a regular resource server, instrumented and visible
// at /debug/peers, and a second node's store reads entries through them.
func TestServerPeerCacheRoutes(t *testing.T) {
	res := source.NewResource()
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New("S1", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Add(src); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(ts.Close)
	serverStore := peer.New(peer.Config{Self: ts.URL, Codec: peer.StringCodec{}})
	ts.Config.Handler = New(res, ts.URL, WithPeerCache(serverStore))

	// A pure-client store (no Self: it serves no ring share) whose only
	// peer is the server; every key routes to the server's local store.
	clientStore := peer.New(peer.Config{
		Peers:   []string{ts.URL},
		Codec:   peer.StringCodec{},
		Timeout: 500 * time.Millisecond,
	})
	now := time.Now()
	clientStore.Put("via-server", qcache.Entry{
		Val: "hello", Expires: now.Add(time.Hour), StaleUntil: now.Add(2 * time.Hour),
	})
	if _, ok := serverStore.Local().Get("via-server", now); !ok {
		t.Fatal("entry put through the server's peer routes is not in its local store")
	}
	e, ok := clientStore.Get("via-server", now)
	if !ok || e.Val != "hello" {
		t.Fatalf("remote read through server routes: %v/%v", e.Val, ok)
	}
	clientStore.Evict("via-server")
	if _, ok := clientStore.Get("via-server", now); ok {
		t.Fatal("entry survived eviction through server routes")
	}

	resp, err := http.Get(ts.URL + "/debug/peers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/peers: %s", resp.Status)
	}
}
