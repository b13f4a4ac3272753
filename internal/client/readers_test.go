package client_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"starts/internal/attr"
	"starts/internal/client"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
	"starts/internal/source"
)

// TestAnswerReadersAgree: every reader of an @SQResults answer — Parse,
// a sample stream's, the buffered query route's and the stream frame
// decoder — gives the same bytes the same verdict. A header must say how
// many documents follow it, the documents must be there, and nothing may
// follow the answer.
func TestAnswerReadersAgree(t *testing.T) {
	doc := func(linkage string) *result.Document {
		return &result.Document{RawScore: 1, Sources: []string{"S1"}, Fields: []result.FieldValue{{Field: attr.FieldLinkage, Value: linkage}}}
	}
	answer := &result.Results{Sources: []string{"S1"}, Documents: []*result.Document{doc("http://a"), doc("http://b")}}
	// objects is answer's object stream, its header edited.
	objects := func(edit func(h *soif.Object)) []*soif.Object {
		objs := answer.ToSOIF()
		edit(objs[0])
		return objs
	}
	marshal := func(objs ...*soif.Object) []byte {
		data, err := soif.MarshalAll(objs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	noCount := func(h *soif.Object) {
		h.Attrs = slices.DeleteFunc(h.Attrs, func(a soif.Attribute) bool { return a.Name == "NumDocSOIFs" })
	}
	count := func(n string) func(*soif.Object) { return func(h *soif.Object) { h.Set("NumDocSOIFs", n) } }
	honest := marshal(answer.ToSOIF()...)
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"honest", honest, true},
		{"no NumDocSOIFs", marshal(objects(noCount)...), false},
		{"no NumDocSOIFs and no documents", marshal(objects(noCount)[0]), false},
		{"NumDocSOIFs past the documents", marshal(objects(count("3"))...), false},
		{"a document past NumDocSOIFs", marshal(objects(count("1"))...), false},
		{"an object after the answer", append(slices.Clip(honest), marshal(soif.New(query.SQueryType))...), false},
		{"an answer after the answer", append(slices.Clip(honest), honest...), false},
	}

	var serve atomic.Pointer[[]byte] // what the server answers every query with
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(*serve.Load()) }))
	defer ts.Close()
	c := client.NewClient(ts.Client())
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list("x")`)
	qb, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	readers := map[string]func(data []byte) error{
		"result.Parse": func(data []byte) error { _, err := result.Parse(data); return err },
		"source.ParseSample": func(data []byte) error {
			_, err := source.ParseSample(append(slices.Clip(qb), data...))
			return err
		},
		"Client.Query": func(data []byte) error {
			serve.Store(&data)
			_, err := c.Query(context.Background(), ts.URL+"/query", q)
			return err
		},
		"result.DecodeStreamItem": func(data []byte) error {
			dec := soif.NewDecoder(bytes.NewReader(data))
			defer dec.Release()
			it, err := result.DecodeStreamItem(dec)
			if err == nil && it.Final == nil {
				t.Fatalf("an answer decoded as %+v", it)
			}
			return err
		},
	}
	for _, tc := range cases {
		for name, read := range readers {
			if err := read(tc.data); (err == nil) != tc.ok {
				t.Errorf("%s: %s says %v, want accepted = %v", tc.name, name, err, tc.ok)
			}
		}
	}
}
