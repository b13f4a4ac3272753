package source

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"starts/internal/corpus"
	"starts/internal/engine"
)

// TestBigSourceSummaryDigest pins the marshaled content summary of one
// big-source source (20 000 documents of 40-word bodies over 2 000-word
// topic vocabularies): every term's postings and document frequency, in
// every field. GlOSS selects sources by these numbers, so a change to how
// the index stores or counts postings that moves any of them fails here,
// not as a silent shift in which sources a query reaches.
func TestBigSourceSummaryDigest(t *testing.T) {
	const want = "1eb2fdb26a0087d110a6c0c57922c6fb8dd2ab5334d650464219dfb401d24074"
	g := corpus.Generate(corpus.Config{Seed: 7, NumSources: 1, DocsPerSource: 20000, BodyWords: 40, VocabWords: 2000})
	eng, err := engine.NewWithDocs(engine.NewVectorConfig(), g.Sources[0].Docs, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g.Sources[0].ID, eng)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.ContentSummary().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("content summary (%d bytes) hashes to %s, want %s", len(data), got, want)
	}
}
