package result

import (
	"bytes"
	"runtime"
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

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// stuffed is a document whose TermStats value is two entries and newlines
// newlines between them: 120 bytes of TermStat apiece, if a newline is
// taken for an entry.
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

// FuzzDecodeBatchItem: whatever the bytes, the batch frame decoder returns
// (no panic, no allocation the bytes did not pay for — a lying count
// fails at the first document that is not there); a frame is a result, an
// item error or a stream error, never two of them; and a decoded result,
// encoded, decodes to a result that encodes to the same bytes.
func FuzzDecodeBatchItem(f *testing.F) {
	answer := paperAnswer()
	f.Add(join(head(BatchItemType, "Index", "2"), withCount(answer, "2")))
	f.Add(head(BatchItemType, "Index", "0", "Error", "unsupported field"))
	f.Add(join(head(BatchItemType, "Index", "1"), []byte(paperQuery)))
	for _, lie := range lies {
		f.Add(join(head(BatchItemType, "Index", "0"), withCount(answer, lie)))
	}
	f.Add(join(head(BatchItemType, "Index", "0"), head(ResultsType, "NumDocSOIFs", "1"), stuffed(128<<10)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			idx          int
			r            *Results
			itemErr, err error
		)
		requireAllocBound(t, data, func() {
			idx, r, itemErr, err = DecodeBatchItem(soif.NewDecoder(bytes.NewReader(data)))
		})
		if err != nil {
			if r != nil || itemErr != nil {
				t.Fatalf("result %v and item error %v alongside stream error %v", r, itemErr, err)
			}
			return
		}
		if (r == nil) == (itemErr == nil) || idx < 0 {
			t.Fatalf("frame %d: result %v, item error %v", idx, r, itemErr)
		}
		if r != nil {
			requireStableResults(t, r)
		}
	})
}

// FuzzDecodeStreamItem is FuzzDecodeBatchItem for the stream frame
// decoder, whose frames are documents at a rank, the final answer or an
// in-band error.
func FuzzDecodeStreamItem(f *testing.F) {
	answer := paperAnswer()
	docs := marshalAll(answer.ToSOIF()[1:]...)
	f.Add(join(head(StreamItemType, "Rank", "0", "NumDocSOIFs", "2"), docs))
	f.Add(head(StreamItemType, "Rank", "7", "NumDocSOIFs", "0"))
	f.Add(join(head(StreamItemType, "Final", "1"), withCount(answer, "2")))
	f.Add(head(StreamItemType, "Error", "merge failed"))
	f.Add(withCount(answer, "2")) // a plain answer is a legal stream
	f.Add([]byte(paperQuery))
	for _, lie := range lies {
		f.Add(join(head(StreamItemType, "Final", "1"), withCount(answer, lie)))
		f.Add(join(head(StreamItemType, "Rank", "0", "NumDocSOIFs", lie), docs))
	}
	f.Add(join(head(StreamItemType, "Rank", "0", "NumDocSOIFs", "1"), stuffed(128<<10)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			it  *StreamItem
			err error
		)
		requireAllocBound(t, data, func() {
			it, err = DecodeStreamItem(soif.NewDecoder(bytes.NewReader(data)))
		})
		if err != nil {
			if it != nil {
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
