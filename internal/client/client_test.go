package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/server"
	"starts/internal/source"
)

// startServer serves one single-source resource, counting requests.
func startServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	res, _ := oneSourceResource(t)
	var hits atomic.Int64
	ts := httptest.NewServer(nil)
	inner := server.New(res, ts.URL)
	ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	})
	t.Cleanup(ts.Close)
	return ts, &hits
}

// oneSourceResource is a resource holding the one-document source S1.
func oneSourceResource(t *testing.T) (*source.Resource, *source.Source) {
	t.Helper()
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New("S1", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&index.Document{
		Linkage: "http://s1/doc", Title: "Distributed databases",
		Body: "A document about distributed databases.",
	}); err != nil {
		t.Fatal(err)
	}
	res := source.NewResource()
	if err := res.Add(s); err != nil {
		t.Fatal(err)
	}
	return res, s
}

func TestHTTPConnCachesMetadata(t *testing.T) {
	ts, hits := startServer(t)
	ctx := context.Background()
	c := client.NewClient(ts.Client())
	conn := client.NewHTTPConn(c, "S1", ts.URL+"/sources/S1/metadata")

	if _, err := conn.Metadata(ctx); err != nil {
		t.Fatal(err)
	}
	after := hits.Load()
	// Summary and Query discover their URLs from the cached metadata: one
	// extra request each, no metadata re-fetch.
	if _, err := conn.Summary(ctx); err != nil {
		t.Fatal(err)
	}
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((body-of-text "databases"))`)
	if _, err := conn.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := hits.Load() - after; got != 2 {
		t.Errorf("requests after metadata = %d, want 2 (summary + query)", got)
	}
	if conn.SourceID() != "S1" {
		t.Errorf("SourceID = %s", conn.SourceID())
	}
	if _, err := conn.Sample(ctx); err != nil {
		t.Errorf("Sample: %v", err)
	}
}

func TestHTTPConnLazyMetadata(t *testing.T) {
	ts, _ := startServer(t)
	ctx := context.Background()
	c := client.NewClient(ts.Client())
	conn := client.NewHTTPConn(c, "S1", ts.URL+"/sources/S1/metadata")
	// Summary without a prior Metadata call fetches metadata implicitly.
	sum, err := conn.Summary(ctx)
	if err != nil || sum.NumDocs != 1 {
		t.Fatalf("Summary = %v, %v", sum, err)
	}
}

func TestDiscover(t *testing.T) {
	ts, _ := startServer(t)
	ctx := context.Background()
	c := client.NewClient(ts.Client())
	conns, err := c.Discover(ctx, ts.URL+"/resource")
	if err != nil || len(conns) != 1 || conns[0].SourceID() != "S1" {
		t.Fatalf("Discover = %v, %v", conns, err)
	}
	if _, err := c.Discover(ctx, ts.URL+"/sources/S1/metadata"); err == nil {
		t.Error("metadata object accepted as resource")
	}
	if _, err := c.Discover(ctx, "http://127.0.0.1:1/resource"); err == nil {
		t.Error("unreachable server accepted")
	}
}

func TestClientHTTPErrorsIncludeBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "synthetic failure detail", http.StatusTeapot)
	}))
	defer ts.Close()
	c := client.NewClient(ts.Client())
	_, err := c.Resource(context.Background(), ts.URL+"/resource")
	if err == nil || !strings.Contains(err.Error(), "synthetic failure detail") {
		t.Errorf("error lacks body detail: %v", err)
	}
}

func TestClientBadURL(t *testing.T) {
	c := client.NewClient(nil)
	if _, err := c.Resource(context.Background(), "://not-a-url"); err == nil {
		t.Error("bad URL accepted")
	}
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list("x")`)
	if _, err := c.Query(context.Background(), "://not-a-url", q); err == nil {
		t.Error("bad query URL accepted")
	}
}

func TestQueryMarshalErrorSurfaces(t *testing.T) {
	ts, _ := startServer(t)
	c := client.NewClient(ts.Client())
	// An invalid query fails before any request is made.
	if _, err := c.Query(context.Background(), ts.URL+"/sources/S1/query", query.New()); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestStatusErrorTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := client.NewClient(ts.Client())
	_, err := c.Resource(context.Background(), ts.URL+"/resource")
	var se *client.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *client.StatusError: %v", err)
	}
	if se.StatusCode != http.StatusServiceUnavailable || !se.Temporary() {
		t.Errorf("client.StatusError = %+v, want retryable 503", se)
	}
	if !strings.Contains(se.Error(), "overloaded") {
		t.Errorf("error lacks body snippet: %v", se)
	}
}

func TestStatusErrorTemporary(t *testing.T) {
	for code, want := range map[int]bool{
		http.StatusBadRequest: false, http.StatusNotFound: false,
		http.StatusRequestTimeout: true, http.StatusTooManyRequests: true,
		http.StatusInternalServerError: true, http.StatusBadGateway: true,
	} {
		se := &client.StatusError{StatusCode: code}
		if se.Temporary() != want {
			t.Errorf("Temporary(%d) = %v, want %v", code, !want, want)
		}
	}
}

// TestHTTPConnConcurrentUse exercises the cached-metadata path from many
// goroutines; the race detector verifies the locking.
func TestHTTPConnConcurrentUse(t *testing.T) {
	ts, _ := startServer(t)
	ctx := context.Background()
	c := client.NewClient(ts.Client())
	conn := client.NewHTTPConn(c, "S1", ts.URL+"/sources/S1/metadata")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if _, err := conn.Metadata(ctx); err != nil {
					t.Error(err)
				}
				return
			}
			if _, err := conn.Summary(ctx); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestHTTPConnKeepsExpiredMetadata: DateExpires is the harvester's to
// honour (core re-harvests a source past it), not the conn's. Metadata
// that expired an hour ago is fetched once, not again before every call,
// and an explicit Metadata call still moves the URLs Query uses.
func TestHTTPConnKeepsExpiredMetadata(t *testing.T) {
	res, src := oneSourceResource(t)
	src.Expires = time.Now().Add(-time.Hour)
	var hits, movedHits atomic.Int64
	var move atomic.Bool
	ts := httptest.NewServer(nil)
	t.Cleanup(ts.Close)
	here := server.New(res, ts.URL)
	// The same source served again under /moved: its metadata points
	// every endpoint there.
	moved := server.New(res, ts.URL+"/moved")
	underMoved := http.StripPrefix("/moved", moved)
	ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/moved/"):
			movedHits.Add(1)
			underMoved.ServeHTTP(w, r)
		case move.Load() && strings.HasSuffix(r.URL.Path, "/metadata"):
			hits.Add(1)
			moved.ServeHTTP(w, r)
		default:
			hits.Add(1)
			here.ServeHTTP(w, r)
		}
	})
	ctx := context.Background()
	conn := client.NewHTTPConn(client.NewClient(ts.Client()), "S1", ts.URL+"/sources/S1/metadata")

	md, err := conn.Metadata(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !md.DateExpires.Before(time.Now()) {
		t.Fatalf("served DateExpires %v, want one in the past", md.DateExpires)
	}
	if _, err := conn.Summary(ctx); err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("Metadata + Summary made %d requests, want 2", got)
	}
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((body-of-text "databases"))`)
	before := hits.Load()
	for i := 0; i < 5; i++ {
		if _, err := conn.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := hits.Load() - before; got != 5 {
		t.Errorf("5 queries made %d requests, want 5", got)
	}

	move.Store(true)
	if _, err := conn.Metadata(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := movedHits.Load(); got != 1 {
		t.Errorf("the query after a re-fetch of the metadata reached its new URL %d times, want 1", got)
	}
}

func TestLocalConnWithoutResource(t *testing.T) {
	eng, _ := engine.New(engine.NewVectorConfig())
	s, _ := source.New("L1", eng)
	if err := s.Add(&index.Document{Linkage: "http://l/1", Title: "t", Body: "words here"}); err != nil {
		t.Fatal(err)
	}
	conn := client.NewLocalConn(s, nil)
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((body-of-text "words"))`)
	// Naming extra sources without a resource falls back to the single
	// source.
	q.Sources = []string{"L2"}
	r, err := conn.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sources) != 1 || r.Sources[0] != "L1" {
		t.Errorf("sources = %v", r.Sources)
	}
}

// TestEndlessErrorBodyIsNotDrained: a source that answers 500 and then
// streams its error body without end costs the call a bounded read, not
// its deadline: past the snippet and a bounded drain the body is closed
// unread, dropping the connection.
func TestEndlessErrorBodyIsNotDrained(t *testing.T) {
	chunk := []byte(strings.Repeat("overloaded ", 400))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := client.NewClient(nil).Metadata(ctx, ts.URL+"/meta")
	took := time.Since(start)
	var se *client.StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err = %v, want a 500 *client.StatusError", err)
	}
	if took > time.Second {
		t.Errorf("an endless error body held the call %v", took)
	}
}
