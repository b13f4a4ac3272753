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
		{"encode Example 8", 8, func() { _ = enc.Encode(doc.toSOIF()) }},
		{"decode Example 8", 11, func() {
			if rd.Len() == 0 {
				rd.Reset(stream)
			}
			o, err := dec.Decode()
			if err == nil {
				_, err = docFromSOIF(o)
			}
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"ParseTermStats of 3 terms", 5, func() {
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
