package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
)

// TestHTTPConnQueryMatchesPlainRoute: HTTPConn.Query reads the terminal
// frame of the streaming route, and must return exactly what the plain
// /query route and the in-process conn return — documents, scores,
// TermStats, the actual-query echo and the source list — over a leaf and
// over a core.Broker face; a source error sent in-band surfaces as an
// error.
func TestHTTPConnQueryMatchesPlainRoute(t *testing.T) {
	_, res := startTestServer(t)
	src, _ := res.Source("Source-1")
	ms := core.New(core.Options{Timeout: 5 * time.Second})
	t.Cleanup(ms.Close)
	ms.Add(client.NewLocalConn(src, res))
	broker, err := ms.NewBroker("region")
	if err != nil {
		t.Fatal(err)
	}

	ranked := rankQuery(t, `list((body-of-text "distributed") (body-of-text "query"))`)
	filtered := rankQuery(t, `list((any "metasearchers"))`)
	if filtered.Filter, err = query.ParseFilter(`(any "metasearchers")`); err != nil {
		t.Fatal(err)
	}
	multi := rankQuery(t, `list((any "distributed"))`)
	multi.Sources = []string{"Source-2"}
	broken := rankQuery(t, `list((any "distributed"))`)
	broken.Sources = []string{"NoSuch"}

	marshal := func(r *result.Results) string {
		t.Helper()
		data, err := soif.MarshalAll(r.ToSOIF())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	ctx := context.Background()
	for _, face := range []client.Conn{client.NewLocalConn(src, res), broker} {
		t.Run(face.SourceID(), func(t *testing.T) {
			ts := httptest.NewServer(http.NotFoundHandler())
			t.Cleanup(ts.Close)
			ts.Config.Handler = NewConns([]client.Conn{face}, ts.URL)
			hc := client.NewClient(ts.Client())
			conns, err := hc.Discover(ctx, ts.URL+"/resource")
			if err != nil {
				t.Fatal(err)
			}
			wire := conns[0]
			url := ts.URL + "/sources/" + face.SourceID() + "/query"
			for name, q := range map[string]*query.Query{"ranked": ranked, "filtered": filtered, "multi-source": multi} {
				want, err := face.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s: in-process: %v", name, err)
				}
				plain, err := hc.Query(ctx, url, q)
				if err != nil {
					t.Fatalf("%s: /query: %v", name, err)
				}
				got, err := wire.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s: HTTPConn.Query: %v", name, err)
				}
				if len(want.Documents) == 0 {
					t.Fatalf("%s: empty answer proves nothing", name)
				}
				if w, p, g := marshal(want), marshal(plain), marshal(got); g != w || g != p {
					t.Errorf("%s differs:\nin-process %s\n/query     %s\nHTTPConn   %s", name, w, p, g)
				}
			}
			if _, err := face.Query(ctx, broken); err == nil {
				t.Fatal("in-process: a query naming an unknown source succeeded")
			}
			if r, err := wire.Query(ctx, broken); err == nil {
				t.Errorf("HTTPConn.Query of a failing query = %v, nil; want the in-band error", r)
			}
		})
	}
}
