package source

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"starts/internal/corpus"
	"starts/internal/engine"
	"starts/internal/meta"
	"starts/internal/query"
)

// bigSourceDigest is the SHA-256 of the marshaled content summary of one
// big-source source (20 000 documents of 40-word bodies over 2 000-word
// topic vocabularies).
const bigSourceDigest = "1eb2fdb26a0087d110a6c0c57922c6fb8dd2ab5334d650464219dfb401d24074"

// bigSourceSpec is that source's generated collection, drawn once per test
// binary; each newBigSource builds its own index over it.
var bigSourceSpec = sync.OnceValue(func() corpus.SourceSpec {
	return corpus.Generate(corpus.Config{Seed: 7, NumSources: 1, DocsPerSource: 20000, BodyWords: 40, VocabWords: 2000}).Sources[0]
})

// newBigSource returns a source over a freshly built big-source index.
func newBigSource(t *testing.T) *Source {
	t.Helper()
	spec := bigSourceSpec()
	eng, err := engine.NewWithDocs(engine.NewVectorConfig(), spec.Docs, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(spec.ID, eng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// summaryDigest returns the SHA-256 of a summary's encoding, and its size.
func summaryDigest(t *testing.T, c *meta.ContentSummary) (string, int) {
	t.Helper()
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), len(data)
}

// TestBigSourceSummaryDigest pins the marshaled content summary of one
// big-source source: every term's postings and document frequency, in
// every field. GlOSS selects sources by these numbers, so a change to how
// the index stores or counts postings that moves any of them fails here,
// not as a silent shift in which sources a query reaches.
func TestBigSourceSummaryDigest(t *testing.T) {
	if got, size := summaryDigest(t, newBigSource(t).ContentSummary()); got != bigSourceDigest {
		t.Errorf("content summary (%d bytes) hashes to %s, want %s", size, got, bigSourceDigest)
	}
}

// TestConcurrentHarvestsShareOneSummary harvests a freshly built
// big-source source from several goroutines while as many others search it
// with truncated terms, which scan the summary's vocabularies: every
// harvest gets the one summary the index built, and it encodes as
// TestBigSourceSummaryDigest pins. Run it under -race (make stress does).
func TestConcurrentHarvestsShareOneSummary(t *testing.T) {
	s := newBigSource(t)
	q := query.New()
	var err error
	if q.Filter, err = query.ParseFilter(`((body-of-text right-truncation "dat") or (title left-truncation "ing"))`); err != nil {
		t.Fatal(err)
	}
	const harvests, searches = 4, 4
	got := make([]*meta.ContentSummary, harvests)
	var wg sync.WaitGroup
	for i := range harvests + searches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < harvests {
				got[i] = s.ContentSummary()
			} else if _, err := s.Search(q); err != nil {
				t.Errorf("truncated search: %v", err)
			}
		}()
	}
	wg.Wait()
	for i, c := range append(got, s.ContentSummary()) {
		if c != got[0] {
			t.Fatalf("harvest %d got summary %p, harvest 0 got %p", i, c, got[0])
		}
	}
	if d, size := summaryDigest(t, got[0]); d != bigSourceDigest {
		t.Errorf("shared content summary (%d bytes) hashes to %s, want %s", size, d, bigSourceDigest)
	}
}
