package result

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"starts/internal/query"
	"starts/internal/soif"
)

// paperQuery is the paper's Example 6 @SQuery: in a response, an object
// of the wrong type.
const paperQuery = "@SQuery{\n" +
	"Version{10}: STARTS 1.0\n" +
	"FilterExpression{52}: ((author ``Ullman'') and (title stem ``databases''))\n" +
	"RankingExpression{65}: list((body-of-text ``distributed'') (body-of-text ``databases''))\n" +
	"MaxNumberDocuments{2}: 10\n" +
	"}\n\n"

// paperAnswer is the paper's Example 8 result, two documents long.
func paperAnswer() *Results {
	filter, _ := query.ParseFilter("((author ``Ullman'') and (title stem ``databases''))")
	ranking, _ := query.ParseRanking("list((body-of-text ``databases''))")
	return &Results{
		Sources:      []string{"Source-1"},
		ActualFilter: filter, ActualRanking: ranking,
		Documents: []*Document{source1Doc(), source2Doc()},
	}
}

// head is one framing object's bytes.
func head(typ string, kv ...string) []byte {
	h := soif.New(typ).Add("Version", query.Version)
	for i := 0; i < len(kv); i += 2 {
		h.Add(kv[i], kv[i+1])
	}
	return marshalAll(h)
}

func marshalAll(objs ...*soif.Object) []byte {
	data, err := soif.MarshalAll(objs)
	if err != nil {
		panic(err)
	}
	return data
}

// withCount is r's object stream with the header's document count
// replaced, as in TestLyingDocCountsAreErrors.
func withCount(r *Results, count string) []byte {
	objs := r.ToSOIF()
	objs[0].Set("NumDocSOIFs", count)
	return marshalAll(objs...)
}

// withoutCount is r's object stream with no NumDocSOIFs in its header.
func withoutCount(r *Results) []byte {
	objs := r.ToSOIF()
	objs[0].Attrs = slices.DeleteFunc(objs[0].Attrs, func(a soif.Attribute) bool { return a.Name == "NumDocSOIFs" })
	return marshalAll(objs...)
}

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// stuffed is a document whose TermStats value is two entries and newlines
// newlines between them: 32 bytes of TermStat and a term apiece, if a
// newline is taken for an entry.
func stuffed(newlines int) []byte {
	d := soif.New(DocumentType).Add("RawScore", "1")
	d.Add("TermStats", `"a" 1 1 1`+strings.Repeat("\n", newlines)+`"b" 1 1 1`)
	return marshalAll(d)
}

// requireAllocBound runs decode over data and fails if it allocated more
// than the input can answer for: lengths and counts on the wire are
// claims, and so is a newline. (The slack is the megabyte of a declared
// value length soif.Decoder reserves before the bytes arrive.)
func requireAllocBound(t *testing.T, data []byte, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+2<<20); got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
	}
}

// lies are document counts the two documents that follow do not bear out.
var lies = []string{"3", "1000000", "4611686018427387904", "-1", "two"}

// streamSeeds is the seed corpus of FuzzDecodeStreamItem: every kind of
// frame, a plain answer, an object of the wrong type, lying and missing
// counts, objects after an answer and a stuffed TermStats value.
func streamSeeds() [][]byte {
	answer := paperAnswer()
	docs := marshalAll(answer.ToSOIF()[1:]...)
	seeds := [][]byte{
		join(head(StreamItemType, "Rank", "0", "NumDocSOIFs", "2"), docs),
		head(StreamItemType, "Rank", "7", "NumDocSOIFs", "0"),
		join(head(StreamItemType, "Final", "1"), withCount(answer, "2")),
		head(StreamItemType, "Error", "merge failed"),
		withCount(answer, "2"), // a plain answer is a legal stream
		[]byte(paperQuery),
		withoutCount(answer),
		withCount(answer, "3"),
		join(withCount(answer, "2"), docs),
		join(withCount(answer, "2"), withCount(answer, "2")),
		join(head(StreamItemType, "Final", "1"), withCount(answer, "2"), head(StreamItemType, "Error", "late")),
	}
	for _, lie := range lies {
		seeds = append(seeds,
			join(head(StreamItemType, "Final", "1"), withCount(answer, lie)),
			join(head(StreamItemType, "Rank", "0", "NumDocSOIFs", lie), docs))
	}
	return append(seeds, join(head(StreamItemType, "Rank", "0", "NumDocSOIFs", "1"), stuffed(128<<10)))
}

// FuzzDecodeStreamItem: whatever the bytes, the stream frame decoder
// returns (no panic, no allocation the bytes did not pay for — a lying
// count fails at the first document that is not there); a frame is
// documents at a rank, the final answer or an in-band error, never two of
// them; Parse accepts exactly the plain answers it accepts; and a decoded
// answer, encoded, decodes to an answer that encodes to the same bytes.
func FuzzDecodeStreamItem(f *testing.F) {
	for _, seed := range streamSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			it  StreamItem
			err error
		)
		requireAllocBound(t, data, func() {
			it, err = DecodeStreamItem(soif.NewDecoder(bytes.NewReader(data)))
		})
		// Parse gives a plain answer the stream decoder's verdict, and
		// refuses anything else.
		first, ferr := soif.NewDecoder(bytes.NewReader(data)).Decode()
		plain := ferr == nil && strings.EqualFold(first.Type, ResultsType)
		if _, perr := Parse(data); (perr == nil) != (err == nil && plain) {
			t.Fatalf("Parse: %v; stream decoder: %v (a plain answer: %v)", perr, err, plain)
		}
		if err != nil {
			if it.Docs != nil || it.Final != nil || it.Err != nil {
				t.Fatalf("frame %+v alongside error %v", it, err)
			}
			return
		}
		switch {
		case it.Err != nil:
			if it.Final != nil || it.Docs != nil {
				t.Fatalf("error frame with an answer: %+v", it)
			}
		case it.Final != nil:
			if it.Docs != nil {
				t.Fatalf("terminal frame with documents: %+v", it)
			}
			requireStableResults(t, it.Final)
		default:
			if it.Rank < 0 {
				t.Fatalf("document frame at rank %d", it.Rank)
			}
			requireStableResults(t, &Results{Documents: it.Docs})
		}
	})
}

// requireStableResults checks that r, which came off the wire, encodes to
// bytes that decode to a result encoding to the same bytes. (Bytes, not
// values: a RawScore may be NaN.)
func requireStableResults(t *testing.T, r *Results) {
	t.Helper()
	first, err := r.Marshal()
	if err != nil {
		t.Fatalf("decoded result does not encode: %v\n%+v", err, r)
	}
	back, err := Parse(first)
	if err != nil {
		t.Fatalf("encoded result does not decode: %v\n%s", err, first)
	}
	if second, err := back.Marshal(); err != nil || !bytes.Equal(first, second) {
		t.Fatalf("not stable (%v):\n%s\nthen\n%s", err, first, second)
	}
	// The streaming decoder reads what Parse reads.
	it, err := DecodeStreamItem(soif.NewDecoder(bytes.NewReader(first)))
	if err != nil || it.Final == nil {
		t.Fatalf("encoded result is not a stream: %+v, %v", it, err)
	}
	if streamed, err := it.Final.Marshal(); err != nil || !bytes.Equal(first, streamed) {
		t.Fatalf("stream decoder (%v):\n%s\nParse:\n%s", err, streamed, first)
	}
}
