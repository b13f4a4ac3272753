package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
	"starts/internal/source"
)

// queryFunc is a Conn whose Query is a function; everything else — but
// no capability beyond the five Conn calls — comes from the embedded
// conn.
type queryFunc struct {
	client.Conn
	query func(context.Context, *query.Query) (*result.Results, error)
}

func (f *queryFunc) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	return f.query(ctx, q)
}

// TestContractViolatingConn: a served conn that returns neither a result
// nor an error must not take the handler down. The one place results are
// encoded turns the violation into an error — a frame where the response
// is framed, a status where it is not — and the next query is unaffected.
func TestContractViolatingConn(t *testing.T) {
	_, res := startTestServer(t)
	src, _ := res.Source("Source-1")
	local := client.NewLocalConn(src, res)
	conn := &queryFunc{Conn: local, query: func(ctx context.Context, q *query.Query) (*result.Results, error) {
		if strings.Contains(q.Ranking.String(), "xylophone") {
			return nil, nil
		}
		return local.Query(ctx, q)
	}}
	ts := httptest.NewServer(NewConns([]client.Conn{conn}, ""))
	t.Cleanup(ts.Close)
	good, bad := rankQuery(t, `list((any "distributed"))`), rankQuery(t, `list((any "xylophone"))`)

	c := client.NewClient(ts.Client())
	ctx := context.Background()
	url := ts.URL + "/sources/Source-1/query"
	var serr *result.StreamError
	if _, err := c.QueryStream(ctx, client.StreamURL(url), bad, nil); !errors.As(err, &serr) {
		t.Errorf("streamed query error = %v, want *result.StreamError", err)
	}
	var herr *client.StatusError
	if _, err := c.Query(ctx, url, bad); !errors.As(err, &herr) || herr.StatusCode != http.StatusInternalServerError {
		t.Errorf("buffered query error = %v, want a 500 *client.StatusError", err)
	}
	if _, err := c.Query(ctx, url, good); err != nil {
		t.Errorf("healthy query after the violations: %v", err)
	}
}

// TestUnencodableAnswerIs500: an answer field name SOIF cannot carry
// fails the plain query route with a 500 in either encoding — the JSON
// rendering too, which is built from the SOIF text.
func TestUnencodableAnswerIs500(t *testing.T) {
	_, res := startTestServer(t)
	src, _ := res.Source("Source-1")
	conn := &queryFunc{Conn: client.NewLocalConn(src, res), query: func(context.Context, *query.Query) (*result.Results, error) {
		d := &result.Document{Fields: []result.FieldValue{{Field: "bad:name", Value: "x"}}}
		return &result.Results{Documents: []*result.Document{d}}, nil
	}}
	ts := httptest.NewServer(NewConns([]client.Conn{conn}, ""))
	t.Cleanup(ts.Close)
	body := marshalQuery(t, rankQuery(t, `list((any "distributed"))`))
	for _, accept := range []string{ContentType, JSONContentType} {
		req, _ := http.NewRequest("POST", ts.URL+"/sources/Source-1/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentType)
		req.Header.Set("Accept", accept)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("Accept %s: status %s, want 500", accept, resp.Status)
		}
	}
}

// TestOversizeRequestIs413 pins the query route's size check: a body
// past its bound is 413 whether or not what fit of it parses.
func TestOversizeRequestIs413(t *testing.T) {
	ts, _ := startTestServer(t)
	q := marshalQuery(t, rankQuery(t, `list((any "distributed"))`))
	for _, tc := range []struct {
		route string
		size  int
	}{
		{"query", maxQueryBytes + 1},
	} {
		// Whole well-formed queries up to the bound, then one cut short by it.
		body := bytes.Repeat(q, tc.size/len(q)+1)[:tc.size]
		resp, err := ts.Client().Post(ts.URL+"/sources/Source-1/"+tc.route, ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body -> %d, want 413", tc.route, tc.size, resp.StatusCode)
		}
	}
}

// TestNewEqualsNewConns is the differential behind New being a thin
// constructor: a resource served by New and its sources served as
// explicitly built LocalConns by NewConns answer every route with the
// same status, the same content headers and the same bytes — and the linkages
// both rewrite into the metadata are the source's own under the server's
// base URL.
func TestNewEqualsNewConns(t *testing.T) {
	const base = "http://starts.test"
	_, res := startTestServer(t)
	var conns []client.Conn
	for _, id := range res.SourceIDs() {
		src, _ := res.Source(id)
		conns = append(conns, client.NewLocalConn(src, res))
	}
	viaNew, viaConns := New(res, base), NewConns(conns, base)

	marshal := func(q *query.Query) string {
		t.Helper()
		data, err := q.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	one := rankQuery(t, `list((any "distributed"))`)
	multi := rankQuery(t, `list((any "metasearchers"))`)
	multi.Sources = []string{"Source-2"}
	jsonQuery, err := one.ToSOIF()
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := jsonQuery.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	two := marshal(one) + marshal(multi)

	serve := func(h http.Handler, method, path, contentType, accept, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, tc := range []struct {
		name, method, path, contentType, accept, body string
	}{
		{"resource", "GET", "/resource", "", "", ""},
		{"metadata", "GET", "/sources/Source-1/metadata", "", "", ""},
		{"metadata-json", "GET", "/sources/Source-2/metadata", "", JSONContentType, ""},
		{"summary", "GET", "/sources/Source-1/summary", "", "", ""},
		{"sample", "GET", "/sources/Source-1/sample", "", "", ""},
		{"unknown-source", "GET", "/sources/Nope/summary", "", "", ""},
		{"query", "POST", "/sources/Source-1/query", ContentType, "", marshal(one)},
		{"query-multi-source", "POST", "/sources/Source-1/query", ContentType, "", marshal(multi)},
		{"query-json", "POST", "/sources/Source-1/query", JSONContentType, JSONContentType, string(jsonBody)},
		{"query-stream", "POST", "/sources/Source-1/query?stream=1", ContentType, "", marshal(one)},
		{"query-malformed", "POST", "/sources/Source-1/query", ContentType, "", "not soif"},
		{"query-two-objects", "POST", "/sources/Source-1/query", ContentType, "", two},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := serve(viaNew, tc.method, tc.path, tc.contentType, tc.accept, tc.body)
			b := serve(viaConns, tc.method, tc.path, tc.contentType, tc.accept, tc.body)
			if a.Code != b.Code {
				t.Fatalf("status: New %d, NewConns %d", a.Code, b.Code)
			}
			for _, h := range []string{"Content-Type", "Vary"} {
				if a.Header().Get(h) != b.Header().Get(h) {
					t.Errorf("%s: New %q, NewConns %q", h, a.Header().Get(h), b.Header().Get(h))
				}
			}
			if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
				t.Errorf("body differs:\nNew      %s\nNewConns %s", a.Body, b.Body)
			}
			if a.Code == http.StatusOK && a.Body.Len() == 0 {
				t.Error("empty 200 body")
			}
		})
	}

	// The served metadata is the source's own with its linkages under the
	// server's base URL.
	served := serve(viaNew, "GET", "/sources/Source-1/metadata", "", "", "").Body.Bytes()
	src, _ := res.Source("Source-1")
	at := base + "/sources/Source-1"
	want := src.Metadata()
	want.Linkage, want.ContentSummaryLinkage, want.SampleDatabaseResults = at+"/query", at+"/summary", at+"/sample"
	stamped, err := soif.Marshal(want.ToSOIF())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, stamped) {
		t.Errorf("served metadata is not the source's under %s:\nserved  %s\nwant    %s", at, served, stamped)
	}
	servedRes := serve(viaNew, "GET", "/resource", "", "", "").Body.String()
	if !strings.Contains(servedRes, at+"/metadata") {
		t.Errorf("/resource does not name %s/metadata:\n%s", at, servedRes)
	}
}

// countingConn counts every Conn call that reaches the embedded conn.
type countingConn struct {
	client.Conn
	calls atomic.Int64
}

func (c *countingConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	c.calls.Add(1)
	return c.Conn.Metadata(ctx)
}

func (c *countingConn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	c.calls.Add(1)
	return c.Conn.Summary(ctx)
}

func (c *countingConn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	c.calls.Add(1)
	return c.Conn.Sample(ctx)
}

func (c *countingConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	c.calls.Add(1)
	return c.Conn.Query(ctx, q)
}

// TestHarvestRoutesCallConnOnce: each GET route asks its conn exactly
// once — a summary request does not also fetch the metadata, which for a
// core.Broker conn would be a second harvest pass.
func TestHarvestRoutesCallConnOnce(t *testing.T) {
	_, res := startTestServer(t)
	src, _ := res.Source("Source-1")
	conn := &countingConn{Conn: client.NewLocalConn(src, res)}
	srv := NewConns([]client.Conn{conn}, "http://starts.test")
	for _, route := range []string{"metadata", "summary", "sample"} {
		conn.calls.Store(0)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/sources/Source-1/"+route, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", route, rec.Code)
		}
		if n := conn.calls.Load(); n != 1 {
			t.Errorf("%s: %d conn calls, want 1", route, n)
		}
	}
}

// TestNoCacheValidators: the harvest routes carry no HTTP cache
// validators — freshness travels in the metadata's DateExpires — and a
// request presenting If-None-Match gets a 200 with the full body. Vary
// stays: it names the negotiated headers, which a shared cache must key on.
func TestNoCacheValidators(t *testing.T) {
	ts, res := startTestServer(t)
	src, _ := res.Source("Source-1")
	src.Expires = time.Now().Add(2 * time.Hour)
	get := func(path, inm string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	for _, route := range []string{"metadata", "summary"} {
		path := "/sources/Source-1/" + route
		_, want := get(path, "")
		for _, inm := range []string{"", "*", `"0123456789abcdef"`} {
			resp, body := get(path, inm)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) || len(want) == 0 {
				t.Errorf("%s with If-None-Match %q: %d with %d bytes, want 200 with the %d-byte body",
					route, inm, resp.StatusCode, len(body), len(want))
			}
			for _, h := range []string{"ETag", "Cache-Control"} {
				if v := resp.Header.Get(h); v != "" {
					t.Errorf("%s: %s = %q, want none", route, h, v)
				}
			}
			if v := resp.Header.Get("Vary"); v != "Accept, Accept-Encoding" {
				t.Errorf("%s: Vary = %q, want the negotiated headers", route, v)
			}
		}
	}
}
