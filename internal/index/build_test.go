package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/text"
)

// genTestDocs builds a deterministic pseudo-random collection large
// enough to span multiple posting blocks and several build chunks.
func genTestDocs(n int) []*Document {
	rng := rand.New(rand.NewSource(42))
	vocab := []string{
		"database", "query", "distributed", "index", "merge", "rank",
		"source", "text", "search", "protocol", "metadata", "summary",
	}
	docs := make([]*Document, n)
	for i := range docs {
		var body []string
		for w := 0; w < 5+rng.Intn(30); w++ {
			body = append(body, vocab[rng.Intn(len(vocab))])
		}
		d := &Document{
			Linkage: fmt.Sprintf("http://t/%d", i),
			Title:   vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))],
			Authors: []string{"Author " + vocab[rng.Intn(len(vocab))]},
			Body:    strings.Join(body, " "),
		}
		if rng.Intn(10) == 0 {
			d.Languages = []lang.Tag{lang.Spanish}
		}
		docs[i] = d
	}
	return docs
}

// indexesEqual asserts two indexes are structurally identical, down to
// block boundaries and sidecar stats.
func indexesEqual(t *testing.T, a, b *Index) {
	t.Helper()
	if len(a.recs) != len(b.recs) || a.numTagged != b.numTagged {
		t.Fatalf("doc count/tagged mismatch: %d/%d vs %d/%d",
			len(a.recs), a.numTagged, len(b.recs), b.numTagged)
	}
	if !reflect.DeepEqual(a.counts, b.counts) {
		t.Fatal("token counts differ")
	}
	// Records and side tables: offsets, dates, side-table indexes and the
	// text itself (strings compare by content).
	if !reflect.DeepEqual(a.recs, b.recs) || !reflect.DeepEqual(a.extras, b.extras) {
		t.Fatal("document records differ")
	}
	if len(a.fields) != len(b.fields) {
		t.Fatalf("field count differs: %d vs %d", len(a.fields), len(b.fields))
	}
	for f, fa := range a.fields {
		fb := b.fields[f]
		if fb == nil {
			t.Fatalf("field %q missing in second index", f)
		}
		if len(fa.terms) != len(fb.terms) {
			t.Fatalf("field %q vocab size %d vs %d", f, len(fa.terms), len(fb.terms))
		}
		for term := range fa.terms {
			pa, _ := fa.lookup(term)
			pb, ok := fb.lookup(term)
			if !ok {
				t.Fatalf("field %q term %q missing in second index", f, term)
			}
			// Ids, positions, list frontier, and every block's bounds and
			// frontier, wherever in its arena each list lies.
			if la, lb := flatten(pa), flatten(pb); !reflect.DeepEqual(la, lb) {
				t.Fatalf("field %q term %q lists differ:\n%+v\nvs\n%+v", f, term, la, lb)
			}
		}
	}
}

// flatList is a posting list apart from where it lies in its arena: its
// ids, frequencies and positions' bytes, its blocks with their offsets
// counted from its first position, and its list-wide frontier.
type flatList struct {
	docs     []int32
	freqs    []uint8
	pos      []byte
	blocks   []block
	frontier []tfLen
}

func flatten(pl postingList) flatList {
	blocks := slices.Clone(pl.blocks())
	from, to := pl.posSpan()
	for i := range blocks {
		blocks[i].posOff -= uint32(from)
	}
	return flatList{slices.Clone(pl.docs()), slices.Clone(pl.freqs()), slices.Clone(pl.a.pos[from:to]), blocks, slices.Clone(pl.frontier())}
}

// TestBuildMatchesSequentialAdd asserts the determinism claim: parallel
// chunked construction produces an index byte-for-byte equivalent to the
// sequential, one-worker build — same ids, same posting blocks, same
// sidecar stats — for any worker count.
func TestBuildMatchesSequentialAdd(t *testing.T) {
	docs := genTestDocs(500)
	seq, err := Build(text.NewAnalyzer(), docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if got := seq.document(i); got.Linkage != d.Linkage {
			t.Fatalf("sequential doc %d is %q, want %q", i, got.Linkage, d.Linkage)
		}
	}
	for _, workers := range []int{2, 3, 8, 0} {
		par, err := Build(text.NewAnalyzer(), docs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		indexesEqual(t, seq, par)
	}
}

func TestBuildRejectsDuplicateLinkage(t *testing.T) {
	docs := genTestDocs(10)
	docs[7].Linkage = docs[2].Linkage
	if _, err := Build(text.NewAnalyzer(), docs, 4); err == nil {
		t.Fatal("duplicate linkage accepted")
	}
}

func TestBuildEmptyAndTiny(t *testing.T) {
	ix, err := Build(text.NewAnalyzer(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumDocs() != 0 {
		t.Fatalf("empty build has %d docs", ix.NumDocs())
	}
	one, err := Build(text.NewAnalyzer(), genTestDocs(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if one.NumDocs() != 1 {
		t.Fatalf("tiny build has %d docs", one.NumDocs())
	}
}

// TestPostingsMatchTokenOracle holds every posting list to a map built
// straight from the analyzer's tokens, reading the list only through its
// cursor: the ids, each one's frequency and positions. Every block is
// held to the postings the cursor walked inside it: its maxDoc, a
// frontier that dominates each of them and whose peak is their max tf and
// min length; the list's own frontier to all of its postings, over lists
// that cross block boundaries.
func TestPostingsMatchTokenOracle(t *testing.T) {
	docs := genTestDocs(700)
	// Bodies repeated up to six times spread frequencies and lengths wide
	// enough to overflow the frontiers, whose merges must stay sound.
	for i, d := range docs {
		d.Body = strings.Repeat(d.Body+" ", 1+i%6)
	}
	// Twice each: a word 300 times, a frequency past what a posting's freqs
	// byte holds, and a word at both ends of more than 2¹⁴ tokens, a
	// position delta of three uvarint bytes (around a frequency of as
	// many).
	for _, i := range []int{100, 400} {
		docs[i].Body = strings.Repeat("echo ", 300)
		docs[i+100].Body = "zulu " + strings.Repeat("yak ", 1<<14) + "zulu"
	}
	a := text.NewAnalyzer()
	// want[field][term][id] are the term's positions in the document;
	// lens[id] is the document's token count.
	want := map[attr.Field]map[string]map[int][]int{}
	lens := make([]int, len(docs))
	for id, d := range docs {
		for _, f := range TextFields {
			toks := a.Tokenizer.Tokenize(nil, d.FieldText(f))
			lens[id] += len(toks)
			for _, tok := range toks {
				term := a.NormalizeTerm(tok.Text)
				if want[f] == nil {
					want[f] = map[string]map[int][]int{}
				}
				if want[f][term] == nil {
					want[f][term] = map[int][]int{}
				}
				want[f][term][id] = append(want[f][term][id], tok.Pos)
			}
		}
	}
	ix, err := Build(a, docs, 3)
	if err != nil {
		t.Fatal(err)
	}
	crossed := false
	for _, f := range TextFields {
		fi := ix.fields[f]
		if fi == nil {
			t.Fatalf("no field %q", f)
		}
		if len(fi.terms) != len(want[f]) {
			t.Fatalf("field %q holds %d terms, want %d", f, len(fi.terms), len(want[f]))
		}
		for term, byDoc := range want[f] {
			pl, ok := fi.lookup(term)
			if !ok {
				t.Fatalf("%s/%s has no list", f, term)
			}
			if checkList(t, string(f)+"/"+term, &pl, byDoc, lens) {
				crossed = true
			}
		}
	}
	if !crossed {
		t.Fatal("no list crosses a block boundary")
	}
}

// checkList walks one list with a cursor against the documents and
// positions it must hold; it reports whether the list has several blocks.
func checkList(t *testing.T, what string, pl *postingList, byDoc map[int][]int, lens []int) bool {
	t.Helper()
	dominated := func(fr []tfLen, freq, docLen int) bool {
		for _, e := range live(fr) {
			if int(e.freq) >= freq && int(e.len) <= docLen {
				return true
			}
		}
		return false
	}
	// The bounds of the block in progress (and of the whole list), as
	// the postings walked so far say they must be.
	type bounds struct{ n, maxDoc, maxFreq, minLen int }
	var inBlock, inList bounds
	var cur *block
	blocks := 0
	closeBlock := func() {
		if cur == nil {
			return
		}
		maxFreq, minLen := peak(cur.frontier[:])
		if int(cur.maxDoc) != inBlock.maxDoc || maxFreq != inBlock.maxFreq || minLen != inBlock.minLen {
			t.Fatalf("%s: block %d bounds {%d %d %d}, postings say {%d %d %d}", what, blocks,
				cur.maxDoc, maxFreq, minLen, inBlock.maxDoc, inBlock.maxFreq, inBlock.minLen)
		}
		blocks++
	}
	prev := -1
	for c := newListCursor(pl); !c.done(); c.next() {
		id := c.doc()
		if id <= prev {
			t.Fatalf("%s: doc %d after %d", what, id, prev)
		}
		prev = id
		wantPos, ok := byDoc[id]
		if !ok {
			t.Fatalf("%s: doc %d holds no such token", what, id)
		}
		got := make([]int, 0, c.freq())
		for _, p := range c.positions() {
			got = append(got, int(p))
		}
		if c.freq() != len(wantPos) || !reflect.DeepEqual(got, wantPos) {
			t.Fatalf("%s: doc %d freq %d positions %v, want %v", what, id, c.freq(), got, wantPos)
		}
		if b := c.curBlock(); b != cur {
			closeBlock()
			if cur != nil && inBlock.n != blockSize {
				t.Fatalf("%s: block %d holds %d postings before the list's last", what, blocks-1, inBlock.n)
			}
			cur, inBlock = b, bounds{}
		}
		for _, bd := range []*bounds{&inBlock, &inList} {
			bd.n++
			bd.maxDoc = id
			bd.maxFreq = max(bd.maxFreq, c.freq())
			if bd.minLen == 0 || lens[id] < bd.minLen {
				bd.minLen = lens[id]
			}
		}
		if !dominated(cur.frontier[:], c.freq(), lens[id]) || !dominated(pl.frontier(), c.freq(), lens[id]) {
			t.Fatalf("%s: doc %d (freq %d, len %d) above frontiers %v / %v",
				what, id, c.freq(), lens[id], cur.frontier, pl.frontier())
		}
	}
	closeBlock()
	if inList.n != len(byDoc) || pl.numDocs() != len(byDoc) {
		t.Fatalf("%s: walked %d postings, numDocs %d, want %d", what, inList.n, pl.numDocs(), len(byDoc))
	}
	if maxFreq, minLen := peak(pl.frontier()); maxFreq != inList.maxFreq || minLen != inList.minLen {
		t.Fatalf("%s: list bounds {%d %d}, postings say {%d %d}", what, maxFreq, minLen, inList.maxFreq, inList.minLen)
	}
	return blocks > 1
}
