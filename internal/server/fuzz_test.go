package server

import (
	"bytes"
	"net/url"
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

// FuzzDecodeRequest: whatever the body, the request decoder returns
// either an error or exactly one query, never accepts a body past
// maxQueryBytes, and never panics. `make tier2` gives it a ten-second budget; the seeds alone run
// with every `go test`.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(paperQuery), false)
	f.Add([]byte(paperQuery+paperQuery+paperQuery), false)
	f.Add(bytes.Repeat([]byte("@SQuery{\nVersion{10}: STARTS 1.0\nFilterExpression{9}: (any \"x\")\n}\n"), 2), false)
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
		q, err := decodeRequest(bytes.NewReader(body), asJSON)
		if err != nil {
			if q != nil {
				t.Errorf("a query alongside error %v", err)
			}
			return
		}
		if q == nil {
			t.Error("no query and no error")
		}
		if int64(len(body)) > maxQueryBytes {
			t.Errorf("accepted a %d-byte body past the %d-byte bound", len(body), maxQueryBytes)
		}
	})
}

// TestDecodeRequestSeeds pins what the fuzz seeds must decode to, so the
// corpus keeps meaning what its comments say.
func TestDecodeRequestSeeds(t *testing.T) {
	q, err := decodeRequest(bytes.NewReader([]byte(paperQuery)), false)
	if err != nil {
		t.Fatalf("paper query: %v", err)
	}
	if got := q.Filter.String(); got != `((author "Ullman") and (title stem "databases"))` {
		t.Errorf("paper query filter = %s", got)
	}
	if q, err := decodeRequest(bytes.NewReader([]byte(paperQuery+paperQuery+paperQuery)), false); err == nil {
		t.Errorf("three concatenated paper queries accepted as %v", q)
	}
	two := bytes.Repeat([]byte("@SQuery{\nVersion{10}: STARTS 1.0\nFilterExpression{9}: (any \"x\")\n}\n"), 2)
	if _, err := decodeRequest(bytes.NewReader(two), false); err == nil {
		t.Error("two concatenated queries accepted")
	}
	if _, err := decodeRequest(bytes.NewReader([]byte(paperQuery[:len(paperQuery)/2])), false); err == nil {
		t.Error("truncated paper query accepted")
	}
}

// FuzzQueryFlagMatchesParseQuery: whatever the raw query, streamWanted's
// reading of it says what the map url.ParseQuery builds of it says.
func FuzzQueryFlagMatchesParseQuery(f *testing.F) {
	for _, raw := range []string{"", "stream=1", "stream=", "stream", "a=b&stream=1", "stream=&stream=1",
		"stream=1;x", "x;y&stream=1", "str%65am=1", "stream=%zz&stream=1", "stream=%2", "st+ream=1",
		"%zz=1&stream=1", "&&stream=0", "stream=+", "stream=%20"} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, _ := url.ParseQuery(raw)
		if got, want := queryFlag(raw, "stream"), values.Get("stream") != ""; got != want {
			t.Fatalf("queryFlag(%q) = %v, url.ParseQuery says %v", raw, got, want)
		}
	})
}
