package server

import (
	"bytes"
	"errors"
	"net/http"
	"testing"

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
