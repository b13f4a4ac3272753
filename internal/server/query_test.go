package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"starts/internal/obs"
	"starts/internal/query"
)

func rankQuery(t *testing.T, expr string) *query.Query {
	t.Helper()
	q := query.New()
	r, err := query.ParseRanking(expr)
	if err != nil {
		t.Fatal(err)
	}
	q.Ranking = r
	return q
}

// marshalQuery is the SOIF request body carrying q.
func marshalQuery(t *testing.T, q *query.Query) []byte {
	t.Helper()
	data, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeRequestCaps pins the decoder's two caps: one @SQuery per
// body, and a body past maxQueryBytes is errTooLarge even when every
// object in it is well formed.
func TestDecodeRequestCaps(t *testing.T) {
	one := marshalQuery(t, rankQuery(t, `list((any "x"))`))
	if _, err := decodeRequest(bytes.NewReader(append(one, one...)), false); err == nil || errors.Is(err, errTooLarge) {
		t.Errorf("two queries: err = %v, want a plain decode error", err)
	}
	body := bytes.Repeat(one, maxQueryBytes/len(one)+1)
	if _, err := decodeRequest(bytes.NewReader(body), false); !errors.Is(err, errTooLarge) {
		t.Errorf("%d-byte body: err = %v, want errTooLarge", len(body), err)
	}
}

// TestQueryRouteTakesOneQuery: STARTS carries one @SQuery per request, so
// a body with two is a 400, the route answers the next healthy query, and
// no route takes several queries at once.
func TestQueryRouteTakesOneQuery(t *testing.T) {
	ts, _ := startTestServer(t)
	one := marshalQuery(t, rankQuery(t, `list((any "distributed"))`))
	for _, tc := range []struct {
		name, route string
		body        []byte
		want        int
	}{
		{"empty", "query", nil, http.StatusBadRequest},
		{"two objects", "query", append(append([]byte(nil), one...), one...), http.StatusBadRequest},
		{"healthy", "query", one, http.StatusOK},
		{"no batch route", "query-batch", one, http.StatusNotFound},
	} {
		resp, err := ts.Client().Post(ts.URL+"/sources/Source-1/"+tc.route, ContentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
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
	body := marshalQuery(t, rankQuery(t, `list((any "distributed"))`))

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
	resp, err := ts.Client().Post(queryURL, ContentType, bytes.NewReader(body))
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
	if _, err := pw.Write(body); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow query failed: %v", err)
	}
}
