package result

import (
	"bytes"
	"io"
	"testing"

	"starts/internal/soif"
)

var sink string

// TestCodecAllocBudget pins what the wire costs in allocations, so that a
// codec change that gives the diet back fails here and not only on the
// benchmark's allocs_per_query. The subject is the paper's Example 8
// document; ceilings sit at most one above what is measured.
func TestCodecAllocBudget(t *testing.T) {
	doc := source1Doc()
	wire, err := soif.Marshal(doc.toSOIF())
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.Repeat(wire, 64)
	rd := bytes.NewReader(nil)
	dec := soif.NewDecoder(rd)
	enc := soif.NewEncoder(io.Discard)
	stats := doc.toSOIF().GetDefault("TermStats", "") + "\n(title stem \"databases\" 0.5) 3 0.25 41"
	for _, b := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"encode Example 8", 7, func() { _ = enc.Encode(doc.toSOIF()) }},
		{"decode Example 8", 9, func() {
			if rd.Len() == 0 {
				rd.Reset(stream)
			}
			if _, err := decodeDocs(1, dec.Decode); err != nil {
				t.Fatal(err)
			}
		}},
		{"ParseTermStats of 3 terms", 3, func() {
			if s, err := ParseTermStats(stats); err != nil || len(s) != 3 {
				t.Fatal(s, err)
			}
		}},
		{"Term.String", 1, func() { sink = doc.TermStats[0].Term.String() }},
	} {
		if got := testing.AllocsPerRun(200, b.run); got > b.ceiling {
			t.Errorf("%s: %v allocations, budget %v", b.name, got, b.ceiling)
		} else {
			t.Logf("%s: %v allocations (budget %v)", b.name, got, b.ceiling)
		}
	}
}

// TestDecodeAnswerAllocatesSlabsOnce: decoding an answer costs, beyond
// what the SOIF decoder allocates for the objects and their strings, a
// constant number of objects — the header's and the slabs' — plus each
// document's Sources list: no map, no struct and no TermStats slice per
// document.
func TestDecodeAnswerAllocatesSlabsOnce(t *testing.T) {
	rd := bytes.NewReader(nil)
	beyondSOIF := func(n int) float64 {
		docs := make([]*Document, n)
		for i := range docs {
			docs[i] = source1Doc()
		}
		answer := &Results{Sources: []string{"Source-1"}, ActualRanking: paperAnswer().ActualRanking, Documents: docs}
		wire := marshalAll(answer.ToSOIF()...)
		all := testing.AllocsPerRun(50, func() {
			rd.Reset(wire)
			if r, err := decodeResults(soif.NewDecoder(rd), nil); err != nil || len(r.Documents) != n {
				t.Fatal(r, err)
			}
		})
		objects := testing.AllocsPerRun(50, func() {
			rd.Reset(wire)
			dec := soif.NewDecoder(rd)
			for i := 0; i <= n; i++ {
				if _, err := dec.Decode(); err != nil {
					t.Fatal(err)
				}
			}
		})
		return all - objects
	}
	ten, twenty := beyondSOIF(10), beyondSOIF(20)
	t.Logf("beyond the SOIF objects: %v allocations for 10 documents, %v for 20", ten, twenty)
	if twenty-ten != 10 {
		t.Errorf("ten more documents cost %v allocations beyond their objects, want 10 (their Sources lists)", twenty-ten)
	}
}
