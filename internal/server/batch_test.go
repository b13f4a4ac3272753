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

// batchBody encodes qs as a batch request body (a stream of @SQuery
// objects).
func batchBody(t *testing.T, qs []*query.Query) *bytes.Buffer {
	t.Helper()
	var body bytes.Buffer
	enc := soif.NewEncoder(&body)
	for _, q := range qs {
		o, err := q.ToSOIF()
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(o); err != nil {
			t.Fatal(err)
		}
	}
	return &body
}

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

// TestQueryBatchEndToEnd round-trips a multi-query batch through the
// HTTP conn: distinct sub-queries, one wire call, index-aligned results.
func TestQueryBatchEndToEnd(t *testing.T) {
	ts, _ := startTestServer(t)
	ctx := context.Background()
	c := client.NewClient(ts.Client())
	conns, err := c.Discover(ctx, ts.URL+"/resource")
	if err != nil {
		t.Fatal(err)
	}
	bc, ok := conns[0].(client.BatchConn)
	if !ok {
		t.Fatalf("HTTP conn %T is not a BatchConn", conns[0])
	}
	qs := []*query.Query{
		rankQuery(t, `list((any "distributed"))`),
		rankQuery(t, `list((any "metasearchers"))`),
		rankQuery(t, `list((any "xylophone"))`), // matches nothing
	}
	results, errs := bc.QueryBatch(ctx, qs)
	if len(results) != 3 || len(errs) != 3 {
		t.Fatalf("got %d results, %d errs", len(results), len(errs))
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if len(results[0].Documents) != 2 {
		t.Errorf("item 0 docs = %d, want 2", len(results[0].Documents))
	}
	if len(results[1].Documents) != 1 {
		t.Errorf("item 1 docs = %d, want 1", len(results[1].Documents))
	}
	if len(results[2].Documents) != 0 {
		t.Errorf("item 2 docs = %d, want 0", len(results[2].Documents))
	}
}

// TestQueryBatchStreamsFirstItem proves the streaming contract: the
// first finished item's frame is readable off the wire BEFORE the last
// item has even been evaluated. Item 1 is parked on a gate inside the
// served conn; the test decodes item 0 from the live response body, and
// only then opens the gate. If the server buffered the response until
// wg.Wait, the decode would block forever and the watchdog would fail
// the test.
func TestQueryBatchStreamsFirstItem(t *testing.T) {
	gate := make(chan struct{})
	_, res := startTestServer(t)
	src, _ := res.Source("Source-1")
	local := client.NewLocalConn(src, res)
	ts := httptest.NewServer(NewConns([]client.Conn{&queryFunc{Conn: local,
		query: func(ctx context.Context, q *query.Query) (*result.Results, error) {
			if strings.Contains(q.Ranking.String(), "metasearchers") {
				<-gate
			}
			return local.Query(ctx, q)
		}}}, ""))
	t.Cleanup(ts.Close)
	qs := []*query.Query{
		rankQuery(t, `list((any "distributed"))`),
		rankQuery(t, `list((any "metasearchers"))`),
	}
	resp, err := ts.Client().Post(ts.URL+"/sources/Source-1/query-batch", ContentType, batchBody(t, qs))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}

	type frame struct {
		idx int
		res *result.Results
		err error
	}
	frames := make(chan frame, 2)
	go func() {
		dec := soif.NewDecoder(resp.Body)
		for {
			idx, r, itemErr, derr := result.DecodeBatchItem(dec)
			if derr != nil {
				return
			}
			frames <- frame{idx, r, itemErr}
		}
	}()

	// Item 0 must arrive while item 1 is still parked behind the gate.
	select {
	case f := <-frames:
		if f.idx != 0 || f.err != nil {
			t.Fatalf("first frame = item %d err %v, want item 0", f.idx, f.err)
		}
		if len(f.res.Documents) != 2 {
			t.Errorf("item 0 docs = %d, want 2", len(f.res.Documents))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("item 0 not streamed while item 1 was still running: server buffered the batch")
	}
	close(gate)
	select {
	case f := <-frames:
		if f.idx != 1 || f.err != nil {
			t.Fatalf("second frame = item %d err %v, want item 1", f.idx, f.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("item 1 never arrived after the gate opened")
	}
}

// TestQueryBatchItemErrorInBand pins per-item error framing: a sub-query
// the engine rejects gets an in-band error frame while its batchmates
// still succeed, all under one 200.
func TestQueryBatchItemErrorInBand(t *testing.T) {
	ts, _ := startTestServer(t)
	bad := rankQuery(t, `list((any "distributed"))`)
	bad.Sources = []string{"no-such-source"}
	qs := []*query.Query{
		rankQuery(t, `list((any "distributed"))`),
		bad,
	}
	resp, err := ts.Client().Post(ts.URL+"/sources/Source-1/query-batch", ContentType, batchBody(t, qs))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s, want 200 with in-band item errors", resp.Status)
	}
	dec := soif.NewDecoder(resp.Body)
	var okDocs, itemErrs int
	for {
		idx, r, itemErr, derr := result.DecodeBatchItem(dec)
		if derr == io.EOF {
			break
		}
		if derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		switch {
		case itemErr != nil:
			if idx != 1 {
				t.Errorf("error frame for item %d, want 1: %v", idx, itemErr)
			}
			itemErrs++
		default:
			if idx != 0 {
				t.Errorf("result frame for item %d, want 0", idx)
			}
			okDocs = len(r.Documents)
		}
	}
	if itemErrs != 1 {
		t.Errorf("error frames = %d, want 1", itemErrs)
	}
	if okDocs != 2 {
		t.Errorf("healthy item docs = %d, want 2", okDocs)
	}
}

// TestQueryBatchRejectsBadRequests pins the request-level failure modes:
// an empty body and a garbage body are statuses, not frames.
func TestQueryBatchRejectsBadRequests(t *testing.T) {
	ts, _ := startTestServer(t)
	cases := []struct {
		name string
		body io.Reader
		want int
	}{
		{"empty", strings.NewReader(""), http.StatusBadRequest},
		{"garbage", strings.NewReader("not soif at all"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/sources/Source-1/query-batch", ContentType, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestDecodeRequestCaps pins the item cap.
func TestDecodeRequestCaps(t *testing.T) {
	q := query.New()
	r, err := query.ParseRanking(`list((any "x"))`)
	if err != nil {
		t.Fatal(err)
	}
	q.Ranking = r
	var body bytes.Buffer
	enc := soif.NewEncoder(&body)
	for i := 0; i <= maxBatchItems; i++ {
		o, err := q.ToSOIF()
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := decodeRequest(&body, maxBatchBytes, false); !errors.Is(err, errTooLarge) {
		t.Errorf("err = %v, want errTooLarge", err)
	}
}
