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

// BenchmarkStreamRoundTrip is one streamed query across the wire with
// both ends in this process: client.HTTPConn posts it to the ?stream=1
// route of a server over a LocalConn, which answers with a 10-document
// terminal frame that the client decodes. `make prof-wire` runs it with
// every allocation sampled, to attribute what the wire codec costs.
func BenchmarkStreamRoundTrip(b *testing.B) {
	date := time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)
	docs := make([]*index.Document, 10)
	for i := range docs {
		n := strconv.Itoa(i)
		docs[i] = &index.Document{Linkage: "http://wire/" + n, Title: "Distributed databases, part " + n,
			Body: "Distributed database systems and distributed query processing " + n, Date: date}
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Config.Handler = NewConns([]client.Conn{client.NewLocalConn(mkStreamSource(b, "wire", docs), nil)}, ts.URL)
	defer ts.Close()
	ctx := context.Background()
	conns, err := client.NewClient(nil).Discover(ctx, ts.URL+"/resource")
	if err != nil {
		b.Fatal(err)
	}
	conn := conns[0].(*client.HTTPConn)
	q := rankingQuery(b, `list((body-of-text "distributed") (body-of-text "databases"))`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := conn.QueryStream(ctx, q, nil)
		if err != nil || len(r.Documents) != len(docs) {
			b.Fatal(r, err)
		}
	}
}
