package server

import (
	"bytes"
	"testing"
)

// paperQuery is the paper's Example 6 @SQuery as printed — “...” quoting
// and all — with correct byte counts.
const paperQuery = "@SQuery{\n" +
	"Version{10}: STARTS 1.0\n" +
	"FilterExpression{52}: ((author ``Ullman'') and (title stem ``databases''))\n" +
	"RankingExpression{65}: list((body-of-text ``distributed'') (body-of-text ``databases''))\n" +
	"DropStopWords{1}: T\n" +
	"DefaultAttributeSet{7}: basic-1\n" +
	"DefaultLanguage{5}: en-US\n" +
	"AnswerFields{12}: title author\n" +
	"MinDocumentScore{3}: 0.5\n" +
	"MaxNumberDocuments{2}: 10\n" +
	"}\n\n"

// FuzzDecodeRequest: whatever the body, the one request decoder returns
// either an error or between one and maxBatchItems queries, and never
// panics. `make tier2` gives it a ten-second budget; the seeds alone run
// with every `go test`.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(paperQuery), false)
	f.Add([]byte(paperQuery+paperQuery+paperQuery), false)
	f.Add(bytes.Repeat([]byte("@SQuery{\nVersion{10}: STARTS 1.0\nFilterExpression{9}: (any \"x\")\n}\n"), maxBatchItems+1), false)
	f.Add([]byte(paperQuery[:len(paperQuery)/2]), false)
	// Lying lengths: one past the value, past the body, past any
	// allocation, and negative.
	f.Add([]byte("@SQuery{\nVersion{11}: STARTS 1.0\nRankingExpression{18}: list((any \"x\"))\n}\n"), false)
	f.Add([]byte("@SQuery{\nVersion{10}: STARTS 1.0\nRankingExpression{999999999}: list((any \"x\"))\n}\n"), false)
	f.Add([]byte("@SQuery{\nVersion{4000000000000000000}: STARTS 1.0\n}\n"), false)
	f.Add([]byte("@SQuery{\nVersion{-1}: STARTS 1.0\n}\n"), false)
	f.Add([]byte(`{"type":"SQuery","attributes":[{"name":"Version","value":"STARTS 1.0"},`+
		`{"name":"RankingExpression","value":"list((any \"x\"))"}]}`), true)
	f.Add([]byte(`{"type":"SQuery","attributes":[{"name":"Version"`), true)
	f.Fuzz(func(t *testing.T, body []byte, asJSON bool) {
		qs, err := decodeRequest(bytes.NewReader(body), maxQueryBytes, asJSON)
		if err != nil {
			if qs != nil {
				t.Errorf("%d queries alongside error %v", len(qs), err)
			}
			return
		}
		if len(qs) == 0 || len(qs) > maxBatchItems {
			t.Errorf("decoded %d queries, want 1..%d", len(qs), maxBatchItems)
		}
		for i, q := range qs {
			if q == nil {
				t.Errorf("query %d is nil", i)
			}
		}
		if int64(len(body)) > maxQueryBytes {
			t.Errorf("accepted a %d-byte body past the %d-byte bound", len(body), maxQueryBytes)
		}
	})
}

// TestDecodeRequestSeeds pins what the fuzz seeds must decode to, so the
// corpus keeps meaning what its comments say.
func TestDecodeRequestSeeds(t *testing.T) {
	qs, err := decodeRequest(bytes.NewReader([]byte(paperQuery+paperQuery+paperQuery)), maxQueryBytes, false)
	if err != nil || len(qs) != 3 {
		t.Fatalf("three concatenated paper queries -> %d queries, err %v", len(qs), err)
	}
	if got := qs[0].Filter.String(); got != `((author "Ullman") and (title stem "databases"))` {
		t.Errorf("paper query filter = %s", got)
	}
	if _, err := decodeRequest(bytes.NewReader([]byte(paperQuery[:len(paperQuery)/2])), maxQueryBytes, false); err == nil {
		t.Error("truncated paper query accepted")
	}
}
