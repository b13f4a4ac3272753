package engine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"starts/internal/index"
)

// TestAddMatchesNewWithDocs is the differential Add is held to: an engine
// fed one document at a time, searched between the Adds, answers every
// query byte for byte as an engine NewWithDocs built over the same
// documents in the same order does — ids, scores, fields and TermStats.
func TestAddMatchesNewWithDocs(t *testing.T) {
	docs := diffUniverse(40)
	type pair struct{ filter, ranking string }
	var queries []pair
	for _, f := range diffFilters(docs) {
		for _, r := range diffRankings()[:4] {
			if f != "" || r != "" {
				queries = append(queries, pair{f, r})
			}
		}
	}
	answer := func(e *Engine, p pair) []byte {
		q := mkQuery(t, p.filter, p.ranking)
		q.MaxResults = 25
		res, err := e.Search(q)
		if err != nil {
			return []byte("error: " + err.Error())
		}
		out, err := res.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range diffConfigs()[:4] {
		t.Run(c.name, func(t *testing.T) {
			added, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			matched := 0
			for i, d := range docs {
				if err := added.Add(d); err != nil {
					t.Fatal(err)
				}
				// Search after the first Add, every 67th and the last.
				if n := i + 1; n != 1 && n%67 != 0 && n != len(docs) {
					continue
				}
				built, err := NewWithDocs(c.cfg, docs[:i+1], 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range queries {
					got, want := answer(added, p), answer(built, p)
					if !bytes.Equal(got, want) {
						t.Fatalf("after %d Adds, filter %s ranking %s:\nadded: %s\nbuilt: %s", i+1, p.filter, p.ranking, got, want)
					}
					if bytes.Contains(got, []byte("@SQRDocument")) {
						matched++
					}
				}
			}
			if matched < len(queries) {
				t.Errorf("only %d answers held documents", matched)
			}
		})
	}
}

// TestConcurrentAddAndSearch runs Adds alongside Searches (run it with
// -race): every search answers, and once the Adds are done the index holds
// every document.
func TestConcurrentAddAndSearch(t *testing.T) {
	e, err := New(NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, docsPer = 4, 4, 50
	q := mkQuery(t, "", `list((body-of-text "databases") (body-of-text "concurrency"))`)
	q.MaxResults = writers * docsPer
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range docsPer {
				d := &index.Document{
					Linkage: fmt.Sprintf("http://w%d/doc%d", w, i),
					Title:   fmt.Sprintf("Concurrent document %d-%d", w, i),
					Body:    "databases distributed systems concurrency testing words",
				}
				if err := e.Add(d); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}()
	}
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				res, err := e.Search(q)
				if err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				if n := len(res.Documents); n > writers*docsPer {
					t.Errorf("a search returned %d documents of at most %d", n, writers*docsPer)
					return
				}
				_ = e.Index().DocFreq("body-of-text", "databases")
			}
		}()
	}
	wg.Wait()
	if n := e.Index().NumDocs(); n != writers*docsPer {
		t.Errorf("NumDocs = %d, want %d", n, writers*docsPer)
	}
	res, err := e.Search(q)
	if err != nil || len(res.Documents) != writers*docsPer {
		t.Errorf("final search = %d documents, %v", len(res.Documents), err)
	}
}

// TestAddRejectsDuplicatesAndInvalid: an invalid document, one whose
// linkage is indexed already and one whose linkage is queued already fail
// at Add, and none of them reaches the index; what the caller does to a
// document after Add does not reach it either.
func TestAddRejectsDuplicatesAndInvalid(t *testing.T) {
	e := newEngine(t, NewVectorConfig())
	indexed := testDocs()[0].Linkage
	if n := e.Index().NumDocs(); n != 3 {
		t.Fatalf("NumDocs = %d, want 3", n)
	}
	queued := &index.Document{Linkage: "http://x/queued", Authors: []string{"Ana"}, Body: "queued"}
	if err := e.Add(queued); err != nil {
		t.Fatal(err)
	}
	queued.Body, queued.Authors[0] = "changed", "changed"
	for name, d := range map[string]*index.Document{
		"no linkage":      {Title: "no url"},
		"indexed linkage": {Linkage: indexed, Body: "again"},
		"queued linkage":  {Linkage: "http://x/queued", Body: "again"},
	} {
		if err := e.Add(d); err == nil {
			t.Errorf("%s: Add accepted %q", name, d.Linkage)
		}
	}
	ix := e.Index()
	if ix.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d, want the 3 built and the 1 queued", ix.NumDocs())
	}
	if d, err := ix.Doc(3); err != nil || d.Body != "queued" || d.Authors[0] != "Ana" {
		t.Errorf("Doc(3) = %+v, %v; want the queued document", d, err)
	}
	if err := e.Add(&index.Document{Linkage: "http://x/queued"}); err == nil {
		t.Error("Add accepted a linkage it has since indexed")
	}
}
