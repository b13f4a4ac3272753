package index

import "testing"

func buildList(t *testing.T, n int) *postingList {
	t.Helper()
	pl := &postingList{}
	for i := 0; i < n; i++ {
		// Doc ids 3i leave gaps so seeks have absent targets; freq cycles
		// 1..5; docLen cycles 10..59.
		positions := make([]int, 1+i%5)
		for j := range positions {
			positions[j] = j
		}
		pl.appendPosting(Posting{DocID: 3 * i, Positions: positions}, 10+i%50)
	}
	return pl
}

func TestPostingListBlocksAndStats(t *testing.T) {
	pl := buildList(t, 300)
	if pl.n != 300 {
		t.Fatalf("n = %d, want 300", pl.n)
	}
	wantBlocks := (300 + blockSize - 1) / blockSize
	if len(pl.blocks) != wantBlocks {
		t.Fatalf("blocks = %d, want %d", len(pl.blocks), wantBlocks)
	}
	if pl.maxFreq != 5 {
		t.Errorf("list maxFreq = %d, want 5", pl.maxFreq)
	}
	if pl.minLen != 10 {
		t.Errorf("list minLen = %d, want 10", pl.minLen)
	}
	prevMax := -1
	total := 0
	for bi, b := range pl.blocks {
		if b.minDoc <= prevMax {
			t.Fatalf("block %d range [%d,%d] overlaps previous max %d", bi, b.minDoc, b.maxDoc, prevMax)
		}
		if b.minDoc != b.docs[0].DocID || b.maxDoc != b.docs[len(b.docs)-1].DocID {
			t.Fatalf("block %d bounds [%d,%d] disagree with content", bi, b.minDoc, b.maxDoc)
		}
		for _, p := range b.docs {
			if p.Freq() > b.maxFreq {
				t.Fatalf("block %d maxFreq %d below posting freq %d", bi, b.maxFreq, p.Freq())
			}
		}
		total += len(b.docs)
		prevMax = b.maxDoc
	}
	if total != 300 {
		t.Fatalf("postings across blocks = %d, want 300", total)
	}
}

func TestPushFrontier(t *testing.T) {
	var fr []tfLen
	// Dominated insert is a no-op; dominating insert evicts.
	fr = pushFrontier(fr, tfLen{freq: 4, len: 30}, 4)
	fr = pushFrontier(fr, tfLen{freq: 3, len: 35}, 4) // dominated (lower freq, longer doc)
	if len(fr) != 1 || fr[0] != (tfLen{freq: 4, len: 30}) {
		t.Fatalf("frontier after dominated insert: %v", fr)
	}
	fr = pushFrontier(fr, tfLen{freq: 5, len: 20}, 4) // dominates the existing entry
	if len(fr) != 1 || fr[0] != (tfLen{freq: 5, len: 20}) {
		t.Fatalf("frontier after dominating insert: %v", fr)
	}
	// Incomparable entries coexist, sorted by freq descending.
	fr = pushFrontier(fr, tfLen{freq: 2, len: 10}, 4)
	fr = pushFrontier(fr, tfLen{freq: 8, len: 50}, 4)
	want := []tfLen{{8, 50}, {5, 20}, {2, 10}}
	if len(fr) != 3 || fr[0] != want[0] || fr[1] != want[1] || fr[2] != want[2] {
		t.Fatalf("frontier = %v, want %v", fr, want)
	}
	// Overflow merges the two smallest-freq entries into a dominating pair.
	fr = pushFrontier(fr, tfLen{freq: 3, len: 15}, 3)
	want = []tfLen{{8, 50}, {5, 20}, {3, 10}}
	if len(fr) != 3 || fr[0] != want[0] || fr[1] != want[1] || fr[2] != want[2] {
		t.Fatalf("capped frontier = %v, want %v", fr, want)
	}
	// len 0 (unknown length) counts as the shortest possible document:
	// at the top frequency it dominates the whole frontier.
	fr = pushFrontier(fr, tfLen{freq: 8, len: 0}, 3)
	if len(fr) != 1 || fr[0] != (tfLen{freq: 8, len: 0}) {
		t.Fatalf("frontier after unknown-length insert: %v", fr)
	}
}

// TestFrontierCoversPostings asserts the soundness invariant bounds rely
// on: every posting's (freq, docLen) pair is dominated by some entry of
// its block's frontier and of the list frontier — even after cap merges.
func TestFrontierCoversPostings(t *testing.T) {
	pl := buildList(t, 300)
	dominated := func(fr []tfLen, freq, docLen int) bool {
		for _, e := range fr {
			if e.freq >= freq && e.len <= docLen {
				return true
			}
		}
		return false
	}
	if len(pl.frontier) == 0 || len(pl.frontier) > listFrontierMax {
		t.Fatalf("list frontier size %d", len(pl.frontier))
	}
	for bi, b := range pl.blocks {
		if len(b.frontier) == 0 || len(b.frontier) > blockFrontierMax {
			t.Fatalf("block %d frontier size %d", bi, len(b.frontier))
		}
		for _, p := range b.docs {
			i := p.DocID / 3 // buildList posting i has doc id 3i, docLen 10+i%50
			docLen := 10 + i%50
			if !dominated(b.frontier, p.Freq(), docLen) {
				t.Fatalf("block %d frontier %v misses posting freq=%d len=%d",
					bi, b.frontier, p.Freq(), docLen)
			}
			if !dominated(pl.frontier, p.Freq(), docLen) {
				t.Fatalf("list frontier %v misses posting freq=%d len=%d",
					pl.frontier, p.Freq(), docLen)
			}
		}
	}
}

func TestPostingListFind(t *testing.T) {
	pl := buildList(t, 300)
	for _, id := range []int{0, 3, 297, 3 * 299} {
		p, ok := pl.find(id)
		if !ok || p.DocID != id {
			t.Errorf("find(%d) = %+v, %v; want hit", id, p, ok)
		}
	}
	for _, id := range []int{-1, 1, 2, 298, 3*299 + 1, 1 << 30} {
		if _, ok := pl.find(id); ok {
			t.Errorf("find(%d) hit; want miss", id)
		}
	}
	var nilPL *postingList
	if _, ok := nilPL.find(5); ok {
		t.Error("nil list find hit")
	}
	if nilPL.numDocs() != 0 {
		t.Error("nil list numDocs != 0")
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
	if b := c.curBlock(); b == nil || b.minDoc > 3*250 || b.maxDoc < 3*250 {
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

func TestListCursorWalkMatchesIterate(t *testing.T) {
	pl := buildList(t, 300)
	var want []int
	pl.iterate(func(p Posting) { want = append(want, p.DocID) })
	var got []int
	for c := newListCursor(pl); !c.done(); c.next() {
		got = append(got, c.doc())
	}
	if len(got) != len(want) {
		t.Fatalf("cursor walk %d docs, iterate %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("doc %d: cursor %d, iterate %d", i, got[i], want[i])
		}
	}
}
