package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/merge"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// TestLeafStreamEndpoint: ?stream=1 against a leaf server answers with
// @SQStreamItem framing whose terminal frame is exactly the buffered
// endpoint's answer.
func TestLeafStreamEndpoint(t *testing.T) {
	ts, _ := startTestServer(t)
	ctx := context.Background()
	c := client.NewClient(nil)
	q := rankingQuery(t, `list((body-of-text "distributed"))`)

	plain, err := c.Query(ctx, ts.URL+"/sources/Source-1/query", q)
	if err != nil {
		t.Fatal(err)
	}
	var frames []result.StreamItem
	streamed, err := c.QueryStream(ctx, client.StreamURL(ts.URL+"/sources/Source-1/query"), q,
		func(it result.StreamItem) error {
			frames = append(frames, it)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 || frames[len(frames)-1].Final == nil {
		t.Fatalf("stream ended without a terminal frame (%d frames)", len(frames))
	}
	if len(streamed.Documents) != len(plain.Documents) {
		t.Fatalf("streamed %d docs, buffered %d", len(streamed.Documents), len(plain.Documents))
	}
	for i := range plain.Documents {
		if streamed.Documents[i].Linkage() != plain.Documents[i].Linkage() {
			t.Fatalf("rank %d: streamed %s, buffered %s",
				i, streamed.Documents[i].Linkage(), plain.Documents[i].Linkage())
		}
	}
}

// gatedConn parks Query until the gate channel closes, and records
// whether a query has finished.
type gatedConn struct {
	client.Conn
	gate     chan struct{}
	finished atomic.Bool
}

func (g *gatedConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer g.finished.Store(true)
	return g.Conn.Query(ctx, q)
}

func mkStreamSource(t *testing.T, id string, docs []*index.Document) *source.Source {
	t.Helper()
	eng, err := engine.New(engine.NewVectorConfig())
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
	return s
}

// TestConnServerStreamsBeforeSlowSource is the tentpole's wire
// acceptance test: a broker over a fast and a gated (slow) source,
// published through NewConns and queried with HTTPConn.QueryStream,
// must deliver the fast source's rank-stable documents over HTTP while
// the slow source is still in flight — and the terminal answer must
// still carry both sources' documents.
func TestConnServerStreamsBeforeSlowSource(t *testing.T) {
	date := time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)
	fastDocs := []*index.Document{
		{Linkage: "http://fast/1", Title: "fast one", Body: "metasearch merging ranking metasearch", Date: date},
		{Linkage: "http://fast/2", Title: "fast two", Body: "metasearch selection ranking", Date: date},
		{Linkage: "http://fast/3", Title: "fast three", Body: "metasearch harvesting", Date: date},
	}
	slowDocs := []*index.Document{
		{Linkage: "http://slow/1", Title: "slow one", Body: "metasearch archive", Date: date},
	}
	ms := core.New(core.Options{Timeout: 10 * time.Second, Merger: merge.RoundRobin{}})
	t.Cleanup(ms.Close)
	// Registration order pins nothing; selection order does. The fast
	// source carries three matching documents to the slow one's single,
	// so GlOSS ranks it first and round-robin's first pick is stable the
	// moment the fast source answers.
	ms.Add(client.NewLocalConn(mkStreamSource(t, "fast", fastDocs), nil))
	release := make(chan struct{})
	slow := &gatedConn{Conn: client.NewLocalConn(mkStreamSource(t, "slow", slowDocs), nil), gate: release}
	ms.Add(slow)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	broker, err := ms.NewBroker("region")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Config.Handler = NewConns([]client.Conn{broker}, ts.URL)
	t.Cleanup(ts.Close)

	ctx := context.Background()
	conns, err := client.NewClient(nil).Discover(ctx, ts.URL+"/resource")
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) != 1 {
		t.Fatalf("discovered %d conns", len(conns))
	}
	sc, ok := conns[0].(client.StreamConn)
	if !ok {
		t.Fatalf("discovered conn %T is not a StreamConn", conns[0])
	}

	q := rankingQuery(t, `list((body-of-text "metasearch"))`)
	var early []string
	slowWasPending := false
	final, err := sc.QueryStream(ctx, q, func(it result.StreamItem) error {
		if it.Final != nil {
			return nil
		}
		if len(early) == 0 && len(it.Docs) > 0 {
			// First documents on the wire: the gated source must still be
			// in flight, and only now is it allowed to answer.
			slowWasPending = !slow.finished.Load()
			close(release)
		}
		for _, d := range it.Docs {
			early = append(early, d.Linkage())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(early) == 0 {
		t.Fatal("no documents streamed before the terminal frame")
	}
	if !slowWasPending {
		t.Fatal("first streamed documents arrived only after the slow source answered")
	}
	// The early prefix is exactly the final answer's head, and the final
	// answer includes the slow source's document.
	if len(early) > len(final.Documents) {
		t.Fatalf("streamed %d docs, final has %d", len(early), len(final.Documents))
	}
	for i, url := range early {
		if final.Documents[i].Linkage() != url {
			t.Fatalf("streamed[%d]=%s but final[%d]=%s", i, url, i, final.Documents[i].Linkage())
		}
	}
	found := false
	for _, d := range final.Documents {
		if d.Linkage() == "http://slow/1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("final answer %v lost the slow source's document", linkages(final.Documents))
	}
}

func linkages(docs []*result.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Linkage()
	}
	return out
}

// TestConnServerInBandError: a failed query is an HTTP status on the
// buffered route, whose response has not started, and an in-band
// @SQStreamItem error object — a *result.StreamError at the client — on
// the streamed one, whose preamble is committed before the search.
func TestConnServerInBandError(t *testing.T) {
	src := mkStreamSource(t, "S", []*index.Document{
		{Linkage: "http://s/1", Title: "doc", Body: "words", Date: time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)},
	})
	conn := &queryFunc{Conn: client.NewLocalConn(src, nil),
		query: func(context.Context, *query.Query) (*result.Results, error) {
			return nil, errors.New("all members down")
		}}
	ts := httptest.NewServer(NewConns([]client.Conn{conn}, ""))
	t.Cleanup(ts.Close)

	ctx := context.Background()
	c := client.NewClient(nil)
	q := rankingQuery(t, `list((body-of-text "words"))`)
	url := ts.URL + "/sources/S/query"

	var herr *client.StatusError
	if _, err := c.Query(ctx, url, q); !errors.As(err, &herr) || herr.StatusCode != http.StatusBadRequest {
		t.Fatalf("buffered query error = %v, want a 400 *client.StatusError", err)
	}
	var serr *result.StreamError
	if _, err := c.QueryStream(ctx, client.StreamURL(url), q, nil); !errors.As(err, &serr) {
		t.Fatalf("streamed query error = %v, want *result.StreamError", err)
	}
}

// TestConnServerStreamPlainConn: ?stream=1 against a served conn that
// cannot stream still answers with legal stream framing — one terminal
// frame.
func TestConnServerStreamPlainConn(t *testing.T) {
	// A Conn without QueryStream: wrap a LocalConn so the StreamConn
	// capability is hidden.
	src := mkStreamSource(t, "S", []*index.Document{
		{Linkage: "http://s/1", Title: "doc", Body: "metasearch words", Date: time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)},
	})
	conn := struct{ client.Conn }{client.NewLocalConn(src, nil)}
	ts := httptest.NewServer(NewConns([]client.Conn{conn}, ""))
	t.Cleanup(ts.Close)

	var frames []result.StreamItem
	q := rankingQuery(t, `list((body-of-text "metasearch"))`)
	final, err := client.NewClient(nil).QueryStream(context.Background(),
		client.StreamURL(ts.URL+"/sources/S/query"), q,
		func(it result.StreamItem) error {
			frames = append(frames, it)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].Final == nil {
		t.Fatalf("plain conn streamed %d frames, want exactly one terminal", len(frames))
	}
	if len(final.Documents) != 1 {
		t.Fatalf("final = %v", linkages(final.Documents))
	}
}
