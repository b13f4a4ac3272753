package result

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"strings"
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
	wire, err := doc.appendSOIF(nil)
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.Repeat(wire, 64)
	rd := bytes.NewReader(nil)
	dec := soif.NewDecoder(rd)
	o := new(soif.Object)
	buf := wire
	stats := doc.toSOIF().GetDefault("TermStats", "") + "\n(title stem \"databases\" 0.5) 3 0.25 41"
	for _, b := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"encode Example 8", 0, func() { buf, _ = doc.appendSOIF(buf[:0]) }},
		{"decode Example 8", 7, func() {
			if rd.Len() == 0 {
				rd.Reset(stream)
			}
			if _, err := decodeDocRun(dec, o, 1); err != nil {
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

// TestDecodeAnswerAllocatesSlabsOnce: decoding an answer costs a constant
// number of objects — the header's text and its documents' one run of
// text, the slabs', the answer's — and nothing per document: no text of
// its own, no map, no struct, no TermStats slice, no attribute slice, and
// no Sources list for a document whose Sources value repeats the one
// before. One decoder reads the answer back to back, so its buffer has
// grown to hold a run before the count (a released decoder's comes from
// the pool that size), and the pool, which the race detector empties at
// random, stays out of it.
func TestDecodeAnswerAllocatesSlabsOnce(t *testing.T) {
	cost := func(n int, source func(i int) string) float64 {
		docs := make([]*Document, n)
		for i := range docs {
			docs[i] = source1Doc()
			docs[i].Sources = []string{source(i)}
		}
		answer := &Results{Sources: []string{"Source-1"}, ActualRanking: paperAnswer().ActualRanking, Documents: docs}
		wire, err := answer.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		stream := bytes.Repeat(wire, 8)
		rd := bytes.NewReader(stream)
		dec := soif.NewDecoder(rd)
		decode := func() {
			if rd.Len() == 0 {
				rd.Reset(stream)
			}
			if r, err := decodeResults(dec, nil); err != nil || len(r.Documents) != n {
				t.Fatal(r, err)
			}
		}
		decode()
		return testing.AllocsPerRun(50, decode)
	}
	shared := func(int) string { return "Source-1" }
	own := func(i int) string { return "Source-" + strconv.Itoa(i) }
	ten, twenty := cost(10, shared), cost(20, shared)
	t.Logf("one Sources value: %v allocations for 10 documents, %v for 20", ten, twenty)
	if twenty-ten != 0 {
		t.Errorf("ten more documents cost %v allocations, want none (they share their run's text)", twenty-ten)
	}
	ten, twenty = cost(10, own), cost(20, own)
	t.Logf("a Sources value each: %v allocations for 10 documents, %v for 20", ten, twenty)
	if twenty-ten != 10 {
		t.Errorf("ten more documents cost %v allocations, want 10 (their Sources lists)", twenty-ten)
	}
}

// TestDecodeAnswerReservesSlabsOnce: the first document's answer fields
// and TermStats lines, counted before any is appended, size the field and
// stats slabs for every document the header promised, so decoding a
// 10-document Example 8 answer allocates each slab once. It read 39
// allocations while the slabs were sized for the first document and then
// grown for the rest (44 and 40 under -race, where the soif decoder's
// slices.Grow allocates twice).
func TestDecodeAnswerReservesSlabsOnce(t *testing.T) {
	budget := 37.0
	if raceBuild {
		budget = 40
	}
	answer := paperAnswer()
	answer.Documents = make([]*Document, 10)
	for i := range answer.Documents {
		answer.Documents[i] = source1Doc()
	}
	wire, err := answer.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	got := testing.AllocsPerRun(50, func() {
		rd.Reset(wire)
		if r, err := decodeResults(soif.NewDecoder(rd), nil); err != nil || len(r.Documents) != 10 {
			t.Fatal(r, err)
		}
	})
	t.Logf("%v allocations to decode 10 documents (budget %v)", got, budget)
	if got > budget {
		t.Errorf("decoding 10 documents allocates %v times, budget %v", got, budget)
	}
}

// TestEncodeAnswerAllocatesNothingPerDocument: appending the terminal
// stream frame of an answer into a buffer with room for it costs the same
// few allocations for 20 documents as for 10 — nothing per document.
func TestEncodeAnswerAllocatesNothingPerDocument(t *testing.T) {
	cost := func(n int) float64 {
		answer := paperAnswer()
		answer.Documents = make([]*Document, n)
		for i := range answer.Documents {
			answer.Documents[i] = source1Doc()
		}
		buf, err := AppendStreamFinal(nil, answer)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() { buf, _ = AppendStreamFinal(buf[:0], answer) })
	}
	ten, twenty := cost(10), cost(20)
	t.Logf("terminal frame: %v allocations for 10 documents, %v for 20", ten, twenty)
	if ten != twenty || twenty > 1 {
		t.Errorf("terminal frame costs %v allocations for 10 documents and %v for 20, want the same, at most 1", ten, twenty)
	}
}

// TestEncodeLongFirstDocumentReservesLittle: the first document sizes the
// buffer for the rest, so a 256 KiB first document followed by 199 short
// ones must not reserve 199 times its length: encoding allocates a small
// multiple of what it writes.
func TestEncodeLongFirstDocumentReservesLittle(t *testing.T) {
	answer := paperAnswer()
	answer.Documents = make([]*Document, 200)
	for i := range answer.Documents {
		answer.Documents[i] = source1Doc()
	}
	long := answer.Documents[0]
	long.Fields = slices.Clone(long.Fields)
	long.Fields[2].Value = strings.Repeat("Ullman ", 256<<10/7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wire, err := answer.Marshal()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes written, %d allocated", len(wire), got)
	if limit := 4 * uint64(len(wire)); got > limit {
		t.Errorf("encoding %d bytes allocated %d (limit %d)", len(wire), got, limit)
	}
}

// TestDecodeStatsSlabGrowsGeometrically: the first document sizes the
// stats slab for the rest by its own entries. When it reports one term and
// every later document three, the slab outgrows that reservation, and it
// must then grow by doubling, not by one document at a time: twenty more
// documents cost their twenty texts and a few regrowths.
func TestDecodeStatsSlabGrowsGeometrically(t *testing.T) {
	rd := bytes.NewReader(nil)
	third := TermStat{Term: bodyTerm("systems"), Freq: 2, Weight: 0.2, DocFreq: 40}
	cost := func(n int) float64 {
		docs := make([]*Document, n)
		for i := range docs {
			docs[i] = source1Doc()
			docs[i].TermStats = append(docs[i].TermStats, third)
		}
		docs[0].TermStats = docs[0].TermStats[:1]
		answer := &Results{Sources: []string{"Source-1"}, ActualRanking: paperAnswer().ActualRanking, Documents: docs}
		wire, err := answer.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			rd.Reset(wire)
			if r, err := decodeResults(soif.NewDecoder(rd), nil); err != nil || len(r.Documents) != n {
				t.Fatal(r, err)
			}
		})
	}
	twenty, forty := cost(20), cost(40)
	t.Logf("%v allocations for 20 documents, %v for 40", twenty, forty)
	if forty-twenty > 20+3 {
		t.Errorf("twenty more documents cost %v allocations, want at most 23 (their texts, a few regrowths)", forty-twenty)
	}
}

// TestDecodeIntoMatchesDecode: one object, reused through DecodeInto over
// every seed of the stream corpus in turn, reads each object as
// Decode reads it into a fresh one — an object with fewer attributes than
// the one before included, of which it keeps nothing.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	o, shrank := new(soif.Object), false
	for i, seed := range streamSeeds() {
		fresh, reused := soif.NewDecoder(bytes.NewReader(seed)), soif.NewDecoder(bytes.NewReader(seed))
		for j := 0; ; j++ {
			had := len(o.Attrs)
			want, werr := fresh.Decode()
			gerr := reused.DecodeInto(o)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("seed %d object %d: DecodeInto error %v, Decode error %v", i, j, gerr, werr)
			}
			if werr != nil {
				break
			}
			if o.Type != want.Type || !slices.Equal(o.Attrs, want.Attrs) {
				t.Fatalf("seed %d object %d: DecodeInto %#v, Decode %#v", i, j, o, want)
			}
			shrank = shrank || len(o.Attrs) < had
		}
		fresh.Release()
		reused.Release()
	}
	if !shrank {
		t.Error("no object had fewer attributes than the one before it")
	}
}
