package server

import (
	"bytes"
	"testing"

	"starts/internal/query"
)

// TestStreamRoundTripAllocBudget bounds what one streamed round trip of a
// 10-document answer allocates over loopback, both ends counted:
// net/http's own share, the source's search, and the wire code's — one
// string per decoded object, the query's block and its parse slabs on
// each side, the answer's header, slabs and term nodes. The wire code
// outside the engine used to make some 60 of the 176.
func TestStreamRoundTripAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("-race changes allocation counts")
	}
	roundTrip := wireRoundTrip(t)
	roundTrip() // harvest the metadata, open the connection
	const budget = 142
	got := testing.AllocsPerRun(50, roundTrip)
	t.Logf("one streamed round trip: %.1f allocations (budget %d)", got, budget)
	if got > budget {
		t.Errorf("one streamed round trip allocates %.1f times, budget %d", got, budget)
	}
}

// TestDecodeRequestAllocBudget bounds the server's decode of a two-term
// ranking that carries a filter: the object's one string, the query and
// its answer fields and sort keys in one block, and each expression's
// parse slabs. The decoder, its limited reader and the object it decodes
// into come from the decoder pool.
func TestDecodeRequestAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("-race changes allocation counts")
	}
	q := rankingQuery(t, `list((body-of-text "distributed") (body-of-text "databases"))`)
	var err error
	if q.Filter, err = query.ParseFilter(`(body-of-text "distributed")`); err != nil {
		t.Fatal(err)
	}
	body, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	decode := func() {
		rd.Reset(body)
		if _, err := decodeRequest(rd, false); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	const budget = 7
	got := testing.AllocsPerRun(200, decode)
	t.Logf("decodeRequest: %.1f allocations (budget %d)", got, budget)
	if got > budget {
		t.Errorf("decodeRequest allocates %.1f times, budget %d", got, budget)
	}
}
