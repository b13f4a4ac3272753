package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/index"
)

// wireRoundTrip serves a 10-document source through NewConns over a
// LocalConn and returns one streamed query across the wire to it, with
// both ends in this process: client.HTTPConn posts the query to the
// ?stream=1 route, which answers with one terminal frame that the client
// decodes.
func wireRoundTrip(tb testing.TB) func() {
	tb.Helper()
	date := time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)
	docs := make([]*index.Document, 10)
	for i := range docs {
		n := strconv.Itoa(i)
		docs[i] = &index.Document{Linkage: "http://wire/" + n, Title: "Distributed databases, part " + n,
			Body: "Distributed database systems and distributed query processing " + n, Date: date}
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Config.Handler = NewConns([]client.Conn{client.NewLocalConn(mkStreamSource(tb, "wire", docs), nil)}, ts.URL)
	tb.Cleanup(ts.Close)
	ctx := context.Background()
	hc := client.NewClient(nil)
	conns, err := hc.Discover(ctx, ts.URL+"/resource")
	if err != nil {
		tb.Fatal(err)
	}
	conn := conns[0].(*client.HTTPConn)
	q := rankingQuery(tb, `list((body-of-text "distributed") (body-of-text "databases"))`)
	return func() {
		r, err := conn.QueryStream(ctx, q, nil)
		if err != nil || len(r.Documents) != len(docs) {
			tb.Fatal(r, err)
		}
	}
}

// BenchmarkStreamRoundTrip is wireRoundTrip's one streamed query. `make
// prof-wire` runs it with every allocation sampled, to attribute what the
// wire codec costs.
func BenchmarkStreamRoundTrip(b *testing.B) {
	roundTrip := wireRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
