package index

import (
	"fmt"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/text"
)

// buildList builds the list of "t" over 3n documents through Build: doc
// ids 3i leave gaps so seeks have absent targets; freq cycles 1..5;
// docLen cycles 10..59, the title's filler words making up the rest.
func buildList(t *testing.T, n int) *postingList {
	t.Helper()
	docs := make([]*Document, 3*n)
	for id := range docs {
		docs[id] = &Document{Linkage: fmt.Sprintf("http://t/%d", id)}
		if i := id / 3; id%3 == 0 {
			freq := 1 + i%5
			docs[id].Body = strings.Repeat("t ", freq)
			docs[id].Title = strings.Repeat("filler ", 10+i%50-freq)
		}
	}
	ix, err := Build(text.NewAnalyzer(), docs, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := ix.fields[attr.FieldBodyOfText].lookup("t")
	return &pl
}

// blockPostings returns the range of posting indexes block bi covers.
func blockPostings(pl *postingList, bi int) (lo, hi int) {
	return bi * blockSize, min((bi+1)*blockSize, len(pl.docs()))
}

func TestPostingListBlocksAndStats(t *testing.T) {
	pl := buildList(t, 300)
	if pl.numDocs() != 300 || len(pl.freqs()) != 300 {
		t.Fatalf("docs, freqs = %d, %d, want 300", pl.numDocs(), len(pl.freqs()))
	}
	wantBlocks := (300 + blockSize - 1) / blockSize
	if len(pl.blocks()) != wantBlocks {
		t.Fatalf("blocks = %d, want %d", len(pl.blocks()), wantBlocks)
	}
	if maxFreq, minLen := peak(pl.frontier()); maxFreq != 5 || minLen != 10 {
		t.Errorf("list peak = (%d, %d), want (5, 10)", maxFreq, minLen)
	}
	prevMax := int32(-1)
	total := 0
	for bi, b := range pl.blocks() {
		lo, hi := blockPostings(pl, bi)
		if pl.docs()[lo] <= prevMax {
			t.Fatalf("block %d range [%d,%d] overlaps previous max %d", bi, pl.docs()[lo], b.maxDoc, prevMax)
		}
		if b.maxDoc != pl.docs()[hi-1] {
			t.Fatalf("block %d maxDoc %d disagrees with content", bi, b.maxDoc)
		}
		maxFreq, _ := peak(b.frontier[:])
		for i := lo; i < hi; i++ {
			if pl.freq(i) > maxFreq {
				t.Fatalf("block %d max freq %d below posting freq %d", bi, maxFreq, pl.freq(i))
			}
		}
		total += hi - lo
		prevMax = b.maxDoc
	}
	if total != 300 {
		t.Fatalf("postings across blocks = %d, want 300", total)
	}
}

// live returns a frontier array's used entries.
func live(fr []tfLen) []tfLen {
	n := 0
	for n < len(fr) && fr[n].freq > 0 {
		n++
	}
	return fr[:n]
}

func TestPushFrontier(t *testing.T) {
	var arr [4]tfLen
	fr := arr[:]
	// Dominated insert is a no-op; dominating insert evicts.
	pushFrontier(fr, tfLen{freq: 4, len: 30})
	pushFrontier(fr, tfLen{freq: 3, len: 35}) // dominated (lower freq, longer doc)
	if got := live(fr); len(got) != 1 || got[0] != (tfLen{freq: 4, len: 30}) {
		t.Fatalf("frontier after dominated insert: %v", fr)
	}
	pushFrontier(fr, tfLen{freq: 5, len: 20}) // dominates the existing entry
	if got := live(fr); len(got) != 1 || got[0] != (tfLen{freq: 5, len: 20}) {
		t.Fatalf("frontier after dominating insert: %v", fr)
	}
	// Incomparable entries coexist, sorted by freq descending.
	pushFrontier(fr, tfLen{freq: 2, len: 10})
	pushFrontier(fr, tfLen{freq: 8, len: 50})
	want := []tfLen{{8, 50}, {5, 20}, {2, 10}}
	if got := live(fr); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("frontier = %v, want %v", fr, want)
	}
	// Overflow merges the two smallest-freq entries into a dominating
	// pair: a three-slot frontier.
	fr = arr[:3]
	pushFrontier(fr, tfLen{freq: 3, len: 15})
	want = []tfLen{{8, 50}, {5, 20}, {3, 10}}
	if got := live(fr); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("capped frontier = %v, want %v", fr, want)
	}
	// len 0 (unknown length) counts as the shortest possible document:
	// at the top frequency it dominates the whole frontier, and the
	// slots it frees are cleared.
	pushFrontier(fr, tfLen{freq: 8, len: 0})
	if fr[0] != (tfLen{freq: 8, len: 0}) || fr[1] != (tfLen{}) || fr[2] != (tfLen{}) {
		t.Fatalf("frontier after unknown-length insert: %v", fr)
	}
}

// TestFrontierCoversPostings asserts the soundness invariant bounds rely
// on: every posting's (freq, docLen) pair is dominated by some entry of
// its block's frontier and of the list frontier — even after cap merges.
func TestFrontierCoversPostings(t *testing.T) {
	pl := buildList(t, 300)
	dominated := func(fr []tfLen, freq, docLen int) bool {
		for _, e := range live(fr) {
			if int(e.freq) >= freq && int(e.len) <= docLen {
				return true
			}
		}
		return false
	}
	if len(live(pl.frontier())) == 0 {
		t.Fatalf("list frontier empty")
	}
	for bi, b := range pl.blocks() {
		if len(live(b.frontier[:])) == 0 {
			t.Fatalf("block %d frontier empty", bi)
		}
		lo, hi := blockPostings(pl, bi)
		for i := lo; i < hi; i++ {
			// buildList posting i has doc id 3i, docLen 10+i%50.
			if int(pl.docs()[i]) != 3*i {
				t.Fatalf("posting %d is doc %d", i, pl.docs()[i])
			}
			docLen := 10 + i%50
			if !dominated(b.frontier[:], pl.freq(i), docLen) {
				t.Fatalf("block %d frontier %v misses posting freq=%d len=%d",
					bi, b.frontier, pl.freq(i), docLen)
			}
			if !dominated(pl.frontier(), pl.freq(i), docLen) {
				t.Fatalf("list frontier %v misses posting freq=%d len=%d",
					pl.frontier(), pl.freq(i), docLen)
			}
		}
	}
}

func TestPostingListFind(t *testing.T) {
	pl := buildList(t, 300)
	for _, id := range []int{0, 3, 297, 3 * 299} {
		i, ok := pl.find(id)
		if !ok || int(pl.docs()[i]) != id {
			t.Errorf("find(%d) = %d, %v; want hit", id, i, ok)
		}
	}
	for _, id := range []int{-1, 1, 2, 298, 3*299 + 1, 1 << 30} {
		if _, ok := pl.find(id); ok {
			t.Errorf("find(%d) hit; want miss", id)
		}
	}
}

func TestListCursorSeek(t *testing.T) {
	pl := buildList(t, 300)
	c := newListCursor(pl)
	if c.doc() != 0 {
		t.Fatalf("fresh cursor doc = %d, want 0", c.doc())
	}
	// Seek to an absent id lands on the next present one.
	c.seek(4)
	if c.doc() != 6 {
		t.Fatalf("seek(4) doc = %d, want 6", c.doc())
	}
	// Seek across many blocks.
	c.seek(3 * 250)
	if c.doc() != 3*250 {
		t.Fatalf("seek(750) doc = %d, want 750", c.doc())
	}
	if lo, _ := blockPostings(pl, c.bi()); c.curBlock() == nil || pl.docs()[lo] > 3*250 || c.curBlock().maxDoc < 3*250 {
		t.Fatalf("curBlock does not contain 750")
	}
	// Seeking backwards is a no-op.
	c.seek(0)
	if c.doc() != 3*250 {
		t.Fatalf("backward seek moved cursor to %d", c.doc())
	}
	c.seek(3*299 + 1)
	if !c.done() || c.doc() != maxDocID {
		t.Fatalf("seek past end: done=%v doc=%d", c.done(), c.doc())
	}
}

// TestListCursorWalkMatchesIterate: a cursor's walk visits the list's
// postings in array order, each with its own frequency and positions.
func TestListCursorWalkMatchesIterate(t *testing.T) {
	pl := buildList(t, 300)
	i := 0
	for c := newListCursor(pl); !c.done(); c.next() {
		if i >= len(pl.docs()) {
			t.Fatalf("cursor walk passes the list's %d postings", len(pl.docs()))
		}
		if c.doc() != int(pl.docs()[i]) || c.freq() != 1+i%5 || len(c.positions()) != c.freq() {
			t.Fatalf("posting %d: cursor doc %d freq %d positions %v, list doc %d freq %d",
				i, c.doc(), c.freq(), c.positions(), pl.docs()[i], 1+i%5)
		}
		if c.curBlock() != pl.block(i/blockSize) {
			t.Fatalf("posting %d: cursor in the wrong block", i)
		}
		i++
	}
	if i != len(pl.docs()) {
		t.Fatalf("cursor walk %d docs, list %d", i, len(pl.docs()))
	}
}
