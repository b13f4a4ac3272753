package index

import (
	"fmt"
	"sync"
	"testing"

	"starts/internal/query"
	"starts/internal/text"
)

// TestConcurrentAddAndLookup exercises the index under parallel writers
// and readers; run with -race.
func TestConcurrentAddAndLookup(t *testing.T) {
	ix := New(text.NewAnalyzer())
	const writers, readers, docsPer = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPer; i++ {
				d := &Document{
					Linkage: fmt.Sprintf("http://w%d/doc%d", w, i),
					Title:   fmt.Sprintf("Concurrent document %d-%d", w, i),
					Body:    "databases distributed systems concurrency testing words",
				}
				if _, err := ix.Add(d); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(w)
	}
	term, _, err := query.ScanTerm(`(body-of-text "databases")`)
	if err != nil {
		t.Fatal(err)
	}
	opts := LookupOptions{}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := ix.Lookup(term, opts); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
				_ = ix.NumDocs()
				_ = ix.DocFreq("body-of-text", "databases")
			}
		}()
	}
	wg.Wait()
	if ix.NumDocs() != writers*docsPer {
		t.Errorf("NumDocs = %d, want %d", ix.NumDocs(), writers*docsPer)
	}
	m, err := ix.Lookup(term, opts)
	if err != nil || len(m.Docs) != writers*docsPer {
		t.Errorf("final lookup = %d docs, %v", len(m.Docs), err)
	}
}

// TestConcurrentFilterEval exercises filter evaluation in parallel with
// vocabulary-building operations (truncation scans build sorted vocab
// lazily under the read lock).
func TestConcurrentFilterEval(t *testing.T) {
	ix := testIndex(t)
	expr, err := query.ParseFilter(`((body-of-text right-truncation "distribut") or (author phonetic "Ulman"))`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := ix.EvalFilter(expr, defaultOpts()); err != nil {
					t.Errorf("EvalFilter: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotDuringAddIsOnePrefix searches while documents are being added
// and requires every answer to be the answer at some prefix of the adds:
// the filter's matches, the ranking term's frequencies, its document
// frequency and the collection size all read from one state of the index.
func TestSnapshotDuringAddIsOnePrefix(t *testing.T) {
	ix := New(text.NewAnalyzer())
	// Every document holds "alpha", every third "beta" as well: after n
	// adds the filter matches the multiples of three below n and alpha's
	// document frequency is n.
	filter, err := query.ParseFilter(`((body-of-text "alpha") and (body-of-text "beta"))`)
	if err != nil {
		t.Fatal(err)
	}
	alpha, _, err := query.ScanTerm(`(body-of-text "alpha")`)
	if err != nil {
		t.Fatal(err)
	}
	const docs = 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < docs; i++ {
			body := "alpha gamma"
			if i%3 == 0 {
				body = "alpha beta alpha"
			}
			if _, err := ix.Add(&Document{Linkage: fmt.Sprintf("http://x/%d", i), Body: body}); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
		}
	}()
	search := func() {
		snap := ix.Snapshot()
		defer snap.Close()
		n := snap.NumDocs()
		m, err := snap.Match(filter, []query.Term{alpha}, LookupOptions{})
		if err != nil {
			t.Errorf("Match: %v", err)
			return
		}
		want := 0
		for id, ok := m.Next(); ok; id, ok = m.Next() {
			if id != want || m.Freq(0) != 2 {
				t.Errorf("with %d documents: matched %d (alpha ×%d), want %d (alpha ×2)", n, id, m.Freq(0), want)
				return
			}
			want += 3
		}
		if want < n || m.DocFreq(0) != n {
			t.Errorf("with %d documents: matches end before %d, alpha in %d documents", n, want, m.DocFreq(0))
		}
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					search()
					return
				default:
					search()
				}
			}
		}()
	}
	wg.Wait()
}
