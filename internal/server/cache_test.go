package server

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"starts/internal/obs"
	"starts/internal/query"
)

func queryBody(t *testing.T) string {
	t.Helper()
	q := query.New()
	var err error
	if q.Ranking, err = query.ParseRanking(`list((any "distributed"))`); err != nil {
		t.Fatal(err)
	}
	body, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestCacheValidators: /metadata, /summary and /query responses carry a
// content-hash ETag and a Cache-Control lifetime, and a matching
// If-None-Match revalidation gets a bodyless 304.
func TestCacheValidators(t *testing.T) {
	ts, res := startTestServer(t)
	src, _ := res.Source("Source-1")
	src.Expires = time.Now().Add(2 * time.Hour)

	fetch := func(method, path, body, inm string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", ContentType)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	routes := []struct {
		name, method, path, body string
	}{
		{"metadata", http.MethodGet, "/sources/Source-1/metadata", ""},
		{"summary", http.MethodGet, "/sources/Source-1/summary", ""},
		{"query", http.MethodPost, "/sources/Source-1/query", queryBody(t)},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			first := fetch(rt.method, rt.path, rt.body, "")
			if first.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", first.StatusCode)
			}
			etag := first.Header.Get("ETag")
			if etag == "" || !strings.HasPrefix(etag, `"`) {
				t.Fatalf("ETag = %q, want a quoted validator", etag)
			}
			cc := first.Header.Get("Cache-Control")
			if !strings.HasPrefix(cc, "max-age=") {
				t.Errorf("Cache-Control = %q, want max-age from DateExpires", cc)
			}
			payload, _ := io.ReadAll(first.Body)
			if len(payload) == 0 {
				t.Fatal("empty 200 body")
			}

			// Same request, matching validator: 304, no body.
			second := fetch(rt.method, rt.path, rt.body, etag)
			if second.StatusCode != http.StatusNotModified {
				t.Fatalf("If-None-Match %s -> %d, want 304", etag, second.StatusCode)
			}
			if second.Header.Get("ETag") != etag {
				t.Errorf("304 ETag = %q, want %q", second.Header.Get("ETag"), etag)
			}
			if b, _ := io.ReadAll(second.Body); len(b) != 0 {
				t.Errorf("304 carried a %d-byte body", len(b))
			}

			// A stale validator re-delivers the full payload.
			third := fetch(rt.method, rt.path, rt.body, `"deadbeef"`)
			if third.StatusCode != http.StatusOK {
				t.Errorf("stale If-None-Match -> %d, want 200", third.StatusCode)
			}
		})
	}
}

// TestCacheControlWithoutExpiry: a source that never set DateExpires
// serves with no-cache (revalidate every time) rather than a made-up
// lifetime.
func TestCacheControlWithoutExpiry(t *testing.T) {
	ts, _ := startTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/sources/Source-1/metadata")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q without DateExpires, want no-cache", cc)
	}
	if resp.Header.Get("ETag") == "" {
		t.Errorf("no ETag on metadata response")
	}
}

// TestETagVariesWithEncoding: the SOIF and JSON representations of one
// resource must not share a validator (caches also get Vary: Accept).
func TestETagVariesWithEncoding(t *testing.T) {
	ts, _ := startTestServer(t)
	get := func(accept string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sources/Source-1/metadata", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	soifTag := get("").Header.Get("ETag")
	jsonResp := get(JSONContentType)
	if jsonResp.Header.Get("ETag") == soifTag {
		t.Errorf("SOIF and JSON representations share ETag %q", soifTag)
	}
	if vary := jsonResp.Header.Get("Vary"); !strings.Contains(vary, "Accept") {
		t.Errorf("Vary = %q, want Accept", vary)
	}
}

// TestQuerySheds: with one query slot held by a slow request, the next
// query is rejected 503 within the queue timeout, with a Retry-After
// hint and a starts_qcache_shed_total count.
func TestQuerySheds(t *testing.T) {
	for _, face := range faces {
		t.Run(face, func(t *testing.T) { testQuerySheds(t, face) })
	}
}

func testQuerySheds(t *testing.T, face string) {
	const queueTimeout = 50 * time.Millisecond
	metrics := obs.NewRegistry()
	ts, id := serveFace(t, face, WithMetrics(metrics), WithMaxInflight(1, queueTimeout))
	queryURL := ts.URL + "/sources/" + id + "/query"

	// Hold the only slot: the handler admits the request, then blocks
	// reading a body we never finish sending.
	pr, pw := io.Pipe()
	slowDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, queryURL, pr)
		if err != nil {
			slowDone <- err
			return
		}
		req.Header.Set("Content-Type", ContentType)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		slowDone <- err
	}()
	inflight := metrics.Gauge(obs.MQCacheInflight)
	deadline := time.Now().Add(5 * time.Second)
	for inflight.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if inflight.Value() == 0 {
		t.Fatal("slow query never acquired the gate")
	}

	// The next query must be shed promptly.
	start := time.Now()
	resp, err := ts.Client().Post(queryURL, ContentType, strings.NewReader(queryBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if time.Since(start) > 10*queueTimeout {
		t.Errorf("shed took %v, want within ~%v", time.Since(start), queueTimeout)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded query -> %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After")
	}
	if got := metrics.Counter(obs.MQCacheShed).Value(); got != 1 {
		t.Errorf("%s = %v, want 1", obs.MQCacheShed, got)
	}

	// Finish the slow request with a valid query; it should succeed.
	if _, err := pw.Write([]byte(queryBody(t))); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow query failed: %v", err)
	}
}

// TestCacheControlHeuristicFromDateChanged: a source declaring only
// DateChanged gets a heuristic max-age — a tenth of the age since the
// change, the same qcache.FreshFor rule the metasearcher uses for its
// per-entry TTLs — instead of no-cache.
func TestCacheControlHeuristicFromDateChanged(t *testing.T) {
	ts, res := startTestServer(t)
	src, _ := res.Source("Source-1")
	src.Changed = time.Now().Add(-100 * time.Minute) // heuristic: ~10 minutes

	resp, err := ts.Client().Get(ts.URL + "/sources/Source-1/metadata")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	cc := resp.Header.Get("Cache-Control")
	if !strings.HasPrefix(cc, "max-age=") {
		t.Fatalf("Cache-Control = %q with DateChanged set, want a heuristic max-age", cc)
	}
	secs, err := strconv.Atoi(strings.TrimPrefix(cc, "max-age="))
	if err != nil {
		t.Fatal(err)
	}
	want := int((100 * time.Minute / 10).Seconds())
	if secs < want-5 || secs > want+5 {
		t.Errorf("max-age = %ds, want ~%ds (age/10)", secs, want)
	}
}

// TestCacheControlPastExpiry: a source already past its DateExpires must
// serve no-cache, not a negative or zero max-age.
func TestCacheControlPastExpiry(t *testing.T) {
	ts, res := startTestServer(t)
	src, _ := res.Source("Source-1")
	src.Expires = time.Now().Add(-time.Hour)

	resp, err := ts.Client().Get(ts.URL + "/sources/Source-1/metadata")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q past DateExpires, want no-cache", cc)
	}
}
