package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
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

// decodeBatchFrames reads a whole query-batch response body into
// index-keyed frames: the marshaled result, or the item's error.
func decodeBatchFrames(t *testing.T, body io.Reader) (results map[int][]byte, errs map[int]error) {
	t.Helper()
	results, errs = map[int][]byte{}, map[int]error{}
	dec := soif.NewDecoder(body)
	for {
		idx, r, itemErr, err := result.DecodeBatchItem(dec)
		if err == io.EOF {
			return results, errs
		}
		if err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
		if itemErr != nil {
			errs[idx] = itemErr
			continue
		}
		data, err := soif.MarshalAll(r.ToSOIF())
		if err != nil {
			t.Fatal(err)
		}
		results[idx] = data
	}
}

// TestContractViolatingConn: a served conn that returns neither a result
// nor an error must not take the handler down. The one place results are
// encoded turns the violation into an error — a frame where the response
// is framed, a status where it is not — and the rest of a batch is
// unaffected.
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

	resp, err := ts.Client().Post(ts.URL+"/sources/Source-1/query-batch", ContentType,
		batchBody(t, []*query.Query{good, bad, good}))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %s", resp.Status)
	}
	results, errs := decodeBatchFrames(t, resp.Body)
	if len(results) != 2 || results[0] == nil || results[2] == nil {
		t.Errorf("healthy frames = %d (items 0 and 2 wanted)", len(results))
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), errNoResult.Error()) {
		t.Errorf("item 1 error = %v, want %q in band", errs[1], errNoResult)
	}

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

// TestOversizeRequestIs413 pins the size check both query routes share:
// a body past the route's bound is 413 whether or not what fit of it
// parses.
func TestOversizeRequestIs413(t *testing.T) {
	ts, _ := startTestServer(t)
	q := batchBody(t, []*query.Query{rankQuery(t, `list((any "distributed"))`)}).Bytes()
	for _, tc := range []struct {
		route string
		size  int
	}{
		{"query", maxQueryBytes + 1},
		{"query-batch", maxBatchBytes + 1},
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
// same status, the same validators and the same bytes — and the linkage
// both rewrite into the metadata is exactly what Source.SetBaseURL, the
// stamp the server used to apply to the sources themselves, produces.
func TestNewEqualsNewConns(t *testing.T) {
	const base = "http://starts.test"
	_, res := startTestServer(t)
	var conns []client.Conn
	for _, id := range res.SourceIDs() {
		src, _ := res.Source(id)
		// Past the one-day clamp, so max-age does not tick mid-test.
		src.Expires = time.Now().Add(48 * time.Hour)
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
	batch := batchBody(t, []*query.Query{one, multi, rankQuery(t, `list((any "xylophone"))`)}).String()

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
		{"query-batch", "POST", "/sources/Source-1/query-batch", ContentType, "", batch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := serve(viaNew, tc.method, tc.path, tc.contentType, tc.accept, tc.body)
			b := serve(viaConns, tc.method, tc.path, tc.contentType, tc.accept, tc.body)
			if a.Code != b.Code {
				t.Fatalf("status: New %d, NewConns %d", a.Code, b.Code)
			}
			for _, h := range []string{"ETag", "Cache-Control", "Content-Type", "Vary"} {
				if a.Header().Get(h) != b.Header().Get(h) {
					t.Errorf("%s: New %q, NewConns %q", h, a.Header().Get(h), b.Header().Get(h))
				}
			}
			if tc.name == "query-batch" {
				// Frames arrive in completion order; compare them by index.
				ra, ea := decodeBatchFrames(t, a.Body)
				rb, eb := decodeBatchFrames(t, b.Body)
				if len(ra) != 3 || len(ea) != 0 || len(eb) != 0 {
					t.Fatalf("New answered %d frames, %d errors; NewConns %d errors", len(ra), len(ea), len(eb))
				}
				for i := range ra {
					if !bytes.Equal(ra[i], rb[i]) {
						t.Errorf("item %d differs:\nNew      %s\nNewConns %s", i, ra[i], rb[i])
					}
				}
				return
			}
			if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
				t.Errorf("body differs:\nNew      %s\nNewConns %s", a.Body, b.Body)
			}
			if a.Code == http.StatusOK && a.Body.Len() == 0 {
				t.Error("empty 200 body")
			}
		})
	}

	// The served linkage is the stamp SetBaseURL would have left.
	served := serve(viaNew, "GET", "/sources/Source-1/metadata", "", "", "").Body.Bytes()
	src, _ := res.Source("Source-1")
	src.SetBaseURL(base + "/sources/Source-1")
	stamped, err := soif.Marshal(src.Metadata().ToSOIF())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, stamped) {
		t.Errorf("served metadata is not the SetBaseURL stamp:\nserved  %s\nstamped %s", served, stamped)
	}
	servedRes := serve(viaNew, "GET", "/resource", "", "", "").Body.String()
	if !strings.Contains(servedRes, src.MetaURL()) {
		t.Errorf("/resource does not name %s:\n%s", src.MetaURL(), servedRes)
	}
}
