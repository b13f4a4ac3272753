package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/soif"
	"starts/internal/source"
)

// startTestServer builds a two-source resource (with one shared document)
// and serves it from an httptest server.
func startTestServer(t *testing.T, opts ...Option) (*httptest.Server, *source.Resource) {
	t.Helper()
	res := source.NewResource()
	mk := func(id string, cfg engine.Config, docs []*index.Document) {
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
		if err := res.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	shared := &index.Document{
		Linkage: "http://shared/survey", Title: "Metasearch survey",
		Body: "Metasearchers merge distributed query results.",
		Date: time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	mk("Source-1", engine.NewVectorConfig(), []*index.Document{
		{Linkage: "http://a/1", Title: "Distributed databases", Body: "Distributed database systems and query processing.", Date: time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)},
		shared,
	})
	mk("Source-2", engine.NewBooleanConfig(), []*index.Document{
		{Linkage: "http://b/1", Title: "Gardening", Body: "Compost and distributed irrigation.", Date: time.Date(1994, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Linkage: "http://shared/survey", Title: "Metasearch survey", Body: "Metasearchers merge distributed query results.", Date: time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)},
	})

	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Config.Handler = New(res, ts.URL, opts...)
	t.Cleanup(ts.Close)
	return ts, res
}

// faces are the two kinds of conn the one server is known to serve: the
// in-process sources of a resource (via New) and a core.Broker (via
// NewConns). Tests of what the server adds around a conn — metrics,
// traces, the gate — run once per face.
var faces = []string{"leaf", "broker"}

// serveFace serves the named face with opts and returns the ID of a
// source on it whose documents mention "distributed".
func serveFace(t *testing.T, face string, opts ...Option) (*httptest.Server, string) {
	t.Helper()
	if face == "leaf" {
		ts, _ := startTestServer(t, opts...)
		return ts, "Source-1"
	}
	return regionalBroker(t, "region", "Member", []*index.Document{
		{Linkage: "http://m/1", Title: "Distributed databases", Body: "Distributed database systems.", Date: time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)},
	}, opts...), "region"
}

// TestEndToEndHTTP is experiment X6's correctness half: discover the
// resource, harvest metadata and summaries, query a source, all over HTTP.
func TestEndToEndHTTP(t *testing.T) {
	ts, _ := startTestServer(t)
	ctx := context.Background()
	c := client.NewClient(ts.Client())

	conns, err := c.Discover(ctx, ts.URL+"/resource")
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(conns) != 2 {
		t.Fatalf("conns = %d", len(conns))
	}

	m, err := conns[0].Metadata(ctx)
	if err != nil {
		t.Fatalf("Metadata: %v", err)
	}
	if m.SourceID != "Source-1" || !strings.HasPrefix(m.Linkage, ts.URL) {
		t.Errorf("metadata = %q %q", m.SourceID, m.Linkage)
	}

	sum, err := conns[0].Summary(ctx)
	if err != nil {
		t.Fatalf("Summary: %v", err)
	}
	if sum.NumDocs != 2 {
		t.Errorf("summary NumDocs = %d", sum.NumDocs)
	}

	samples, err := conns[0].Sample(ctx)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if len(samples) == 0 {
		t.Error("no sample entries")
	}

	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((any "distributed"))`)
	res, err := conns[0].Query(ctx, q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Documents) != 2 {
		t.Errorf("results = %d", len(res.Documents))
	}
	if res.Sources[0] != "Source-1" {
		t.Errorf("sources = %v", res.Sources)
	}
}

func TestMultiSourceQueryOverHTTP(t *testing.T) {
	ts, _ := startTestServer(t)
	ctx := context.Background()
	c := client.NewClient(ts.Client())
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((any "metasearchers"))`)
	q.Filter, _ = query.ParseFilter(`(any "metasearchers")`)
	q.Sources = []string{"Source-2"}
	res, err := c.Query(ctx, ts.URL+"/sources/Source-1/query", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sources) != 2 {
		t.Errorf("sources = %v", res.Sources)
	}
	// The shared document appears once, attributed to both sources.
	count := 0
	for _, d := range res.Documents {
		if d.Linkage() == "http://shared/survey" {
			count++
			if len(d.Sources) != 2 {
				t.Errorf("shared doc sources = %v", d.Sources)
			}
		}
	}
	if count != 1 {
		t.Errorf("shared doc appears %d times", count)
	}
}

func TestServerErrors(t *testing.T) {
	ts, _ := startTestServer(t)
	get := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/sources/NoSuch/metadata"); got != http.StatusNotFound {
		t.Errorf("unknown source metadata -> %d", got)
	}
	if got := get("/nothing"); got != http.StatusNotFound {
		t.Errorf("unknown path -> %d", got)
	}
	post := func(path, body string) int {
		resp, err := ts.Client().Post(ts.URL+path, ContentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/sources/Source-1/query", "not soif"); got != http.StatusBadRequest {
		t.Errorf("malformed SOIF -> %d", got)
	}
	if got := post("/sources/Source-1/query", "@SQuery{\n}\n"); got != http.StatusBadRequest {
		t.Errorf("empty query -> %d", got)
	}
	// Query naming an unknown extra source.
	q := query.New()
	q.Filter, _ = query.ParseFilter(`(any "x")`)
	q.Sources = []string{"NoSuch"}
	body, _ := q.Marshal()
	if got := post("/sources/Source-1/query", string(body)); got != http.StatusBadRequest {
		t.Errorf("unknown extra source -> %d", got)
	}
	// GET on the query endpoint is not allowed.
	if got := get("/sources/Source-1/query"); got != http.StatusMethodNotAllowed {
		t.Errorf("GET query -> %d", got)
	}
}

func TestClientErrorPaths(t *testing.T) {
	ts, _ := startTestServer(t)
	ctx := context.Background()
	c := client.NewClient(nil) // default client also works against httptest
	if _, err := c.Resource(ctx, ts.URL+"/nothing"); err == nil {
		t.Error("404 resource accepted")
	}
	if _, err := c.Metadata(ctx, ts.URL+"/resource"); err == nil {
		t.Error("resource object accepted as metadata")
	}
	if _, err := c.Summary(ctx, ts.URL+"/resource"); err == nil {
		t.Error("resource object accepted as summary")
	}
	if _, err := c.Sample(ctx, ts.URL+"/resource"); err == nil {
		t.Error("resource object accepted as sample")
	}
	// Context cancellation propagates.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Resource(cancelled, ts.URL+"/resource"); err == nil {
		t.Error("cancelled context succeeded")
	}
}

func TestLocalConnParity(t *testing.T) {
	// The same interactions work against an in-process source.
	_, res := startTestServer(t)
	s, _ := res.Source("Source-1")
	conn := client.NewLocalConn(s, res)
	ctx := context.Background()
	if conn.SourceID() != "Source-1" {
		t.Errorf("id = %s", conn.SourceID())
	}
	if _, err := conn.Metadata(ctx); err != nil {
		t.Errorf("Metadata: %v", err)
	}
	if _, err := conn.Summary(ctx); err != nil {
		t.Errorf("Summary: %v", err)
	}
	if _, err := conn.Sample(ctx); err != nil {
		t.Errorf("Sample: %v", err)
	}
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((any "distributed"))`)
	q.Sources = []string{"Source-2"}
	r, err := conn.Query(ctx, q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(r.Sources) != 2 {
		t.Errorf("multi-source local query sources = %v", r.Sources)
	}
}

// TestJSONContentNegotiation: the paper leaves the encoding open; the
// server speaks JSON when asked via Accept, and accepts JSON queries.
func TestJSONContentNegotiation(t *testing.T) {
	ts, _ := startTestServer(t)
	// GET with Accept: application/json.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/sources/Source-1/metadata", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", JSONContentType)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != JSONContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	objs, err := soif.UnmarshalAllJSON(body)
	if err != nil || len(objs) != 1 || objs[0].Type != "SMetaAttributes" {
		t.Fatalf("JSON metadata = %v, %v", objs, err)
	}
	if v, _ := objs[0].Get("SourceID"); v != "Source-1" {
		t.Errorf("SourceID = %q", v)
	}

	// POST a JSON-encoded query and receive JSON results.
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((any "distributed"))`)
	qo, err := q.ToSOIF()
	if err != nil {
		t.Fatal(err)
	}
	jq, err := qo.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	req2, err := http.NewRequest(http.MethodPost, ts.URL+"/sources/Source-1/query", strings.NewReader(string(jq)))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Content-Type", JSONContentType)
	req2.Header.Set("Accept", JSONContentType)
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	robjs, err := soif.UnmarshalAllJSON(body2)
	if err != nil || len(robjs) < 2 || robjs[0].Type != "SQResults" {
		t.Fatalf("JSON results = %d objs, %v", len(robjs), err)
	}

	// Default (no Accept) stays SOIF.
	resp3, err := ts.Client().Get(ts.URL + "/resource")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("default Content-Type = %q", ct)
	}
}

// TestGzipSummaries: large payloads are gzip-compressed when accepted;
// the standard client decompresses transparently, so the STARTS client
// needs no changes.
func TestGzipSummaries(t *testing.T) {
	ts, _ := startTestServer(t)
	// Raw request with explicit gzip accept against a large payload (the
	// sample-results stream): compressed on the wire.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/sources/Source-1/sample", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := ts.Client().Transport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q", ce)
	}
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) == 0 || strings.HasPrefix(string(raw), "@SQuery") {
		t.Error("payload does not look compressed")
	}
	// The STARTS client still parses summaries end to end (transparent
	// decompression in net/http).
	c := client.NewClient(ts.Client())
	sum, err := c.Summary(context.Background(), ts.URL+"/sources/Source-1/summary")
	if err != nil || sum.NumDocs != 2 {
		t.Fatalf("Summary through gzip = %v, %v", sum, err)
	}
	// Small payloads (the resource object) stay uncompressed.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/resource", nil)
	req2.Header.Set("Accept-Encoding", "gzip")
	resp2, err := ts.Client().Transport.RoundTrip(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ce := resp2.Header.Get("Content-Encoding"); ce == "gzip" {
		t.Error("tiny resource object needlessly compressed")
	}
}
