package index

import "sort"

// blockSize is the number of postings per block. Blocks are the pruning
// unit of the sidecar block index: each carries min/max doc-id bounds and
// upper-bound statistics (max term frequency, min document length) so
// that boolean and ranked traversals can skip whole blocks that cannot
// contribute to the answer. 128 keeps the sidecar under 1% of posting
// memory while making a skipped block worth ~128 posting visits.
const blockSize = 128

// frontier caps bound the Pareto frontiers blocks and lists carry.
// Small caps keep the sidecar cheap; overflow merges entries into a
// dominating (higher-freq, shorter-len) pair, loosening the bound
// slightly but never unsoundly.
const (
	blockFrontierMax = 4
	listFrontierMax  = 8
)

// tfLen is one (term frequency, document length) candidate on a score
// upper-bound Pareto frontier. A pair a dominates b when a.freq >=
// b.freq and a.len <= b.len: for any monotone term weighting —
// non-decreasing in tf, non-increasing in length — a's weight is at
// least b's. len 0 means "length unknown" and counts as the shortest
// possible document (no normalization), the conservative direction.
type tfLen struct {
	freq, len int
}

// pushFrontier inserts a candidate into a dominance-free frontier kept
// sorted by freq descending (and therefore len descending), dropping
// dominated entries and merging the two smallest-freq entries into a
// pair that dominates both whenever the frontier would exceed max.
func pushFrontier(fr []tfLen, e tfLen, max int) []tfLen {
	for _, x := range fr {
		if x.freq >= e.freq && x.len <= e.len {
			return fr // dominated by an existing entry
		}
	}
	kept := fr[:0]
	for _, x := range fr {
		if !(e.freq >= x.freq && e.len <= x.len) {
			kept = append(kept, x)
		}
	}
	kept = append(kept, e)
	for i := len(kept) - 1; i > 0 && kept[i].freq > kept[i-1].freq; i-- {
		kept[i], kept[i-1] = kept[i-1], kept[i]
	}
	for len(kept) > max {
		a, b := kept[len(kept)-2], kept[len(kept)-1] // a.freq >= b.freq
		m := a.len
		if b.len < m {
			m = b.len
		}
		kept[len(kept)-2] = tfLen{freq: a.freq, len: m}
		kept = kept[:len(kept)-1]
	}
	return kept
}

// block is one fixed-capacity run of postings plus its sidecar stats.
// Postings within a block are ascending by DocID, and blocks themselves
// are disjoint ascending runs, so [minDoc, maxDoc] ranges never overlap.
type block struct {
	minDoc, maxDoc int
	// maxFreq is the largest term frequency of any posting in the block:
	// the tf half of a block-max score bound.
	maxFreq int
	// minLen is the smallest token count of any document in the block:
	// the length-normalization half of a block-max score bound. Zero
	// until the owning index records lengths (documents added before
	// their length is known keep the conservative bound).
	minLen int
	// frontier is the Pareto frontier of the block's (freq, len) pairs:
	// every posting is dominated by some entry, so the max monotone term
	// weight over the frontier is a tight upper bound on the block — far
	// tighter than the (maxFreq, minLen) combination, which pairs one
	// document's frequency with a different document's length.
	frontier []tfLen
	docs     []Posting
}

// postingList is the per-term entry of a field index: a sequence of
// blocks, ascending by doc id across and within blocks.
type postingList struct {
	blocks []*block
	n      int // total postings
	// maxFreq / minLen aggregate the block stats list-wide, the global
	// upper bound WAND pivoting starts from; frontier is the list-wide
	// Pareto frontier, the tight version of the same bound.
	maxFreq  int
	minLen   int
	frontier []tfLen
}

// appendPosting adds a posting with the owning document's token count.
// Doc ids must arrive in ascending order (the index assigns them
// monotonically); docLen==0 means "unknown" and keeps bounds conservative.
func (pl *postingList) appendPosting(p Posting, docLen int) {
	var b *block
	if len(pl.blocks) == 0 || len(pl.blocks[len(pl.blocks)-1].docs) >= blockSize {
		b = &block{minDoc: p.DocID, docs: make([]Posting, 0, 4)}
		pl.blocks = append(pl.blocks, b)
	} else {
		b = pl.blocks[len(pl.blocks)-1]
	}
	b.docs = append(b.docs, p)
	b.maxDoc = p.DocID
	if f := p.Freq(); f > b.maxFreq {
		b.maxFreq = f
	}
	if docLen > 0 && (b.minLen == 0 || docLen < b.minLen) {
		b.minLen = docLen
	}
	e := tfLen{freq: p.Freq(), len: docLen}
	b.frontier = pushFrontier(b.frontier, e, blockFrontierMax)
	pl.frontier = pushFrontier(pl.frontier, e, listFrontierMax)
	pl.n++
	if b.maxFreq > pl.maxFreq {
		pl.maxFreq = b.maxFreq
	}
	if b.minLen > 0 && (pl.minLen == 0 || b.minLen < pl.minLen) {
		pl.minLen = b.minLen
	}
}

// numDocs returns the posting count (= document frequency: each document
// contributes one posting per term).
func (pl *postingList) numDocs() int {
	if pl == nil {
		return 0
	}
	return pl.n
}

// iterate calls fn for every posting in doc-id order.
func (pl *postingList) iterate(fn func(Posting)) {
	if pl == nil {
		return
	}
	for _, b := range pl.blocks {
		for i := range b.docs {
			fn(b.docs[i])
		}
	}
}

// find returns the posting for one doc id, using the sidecar bounds to
// binary-search blocks before scanning within one.
func (pl *postingList) find(id int) (Posting, bool) {
	if pl == nil || len(pl.blocks) == 0 {
		return Posting{}, false
	}
	bi := sort.Search(len(pl.blocks), func(i int) bool { return pl.blocks[i].maxDoc >= id })
	if bi == len(pl.blocks) {
		return Posting{}, false
	}
	b := pl.blocks[bi]
	if id < b.minDoc {
		return Posting{}, false
	}
	di := sort.Search(len(b.docs), func(i int) bool { return b.docs[i].DocID >= id })
	if di < len(b.docs) && b.docs[di].DocID == id {
		return b.docs[di], true
	}
	return Posting{}, false
}

// listCursor walks one posting list in doc-id order with block-skipping
// seeks. The zero cursor is positioned before the first posting; call
// next or seek to position it. After exhaustion, doc() returns maxInt.
type listCursor struct {
	pl *postingList
	bi int // current block
	di int // current posting within block
	// boundBi/bound memoize the ranked path's frontier bound for the
	// block last computed, so consecutive pivots inside one block pay
	// for the TermWeight evaluations once.
	boundBi int
	bound   float64
}

const maxDocID = int(^uint(0) >> 1)

func newListCursor(pl *postingList) *listCursor {
	return &listCursor{pl: pl, bi: 0, di: 0, boundBi: -1}
}

// done reports exhaustion.
func (c *listCursor) done() bool {
	return c.pl == nil || c.bi >= len(c.pl.blocks)
}

// doc returns the current doc id, or maxDocID when exhausted.
func (c *listCursor) doc() int {
	if c.done() {
		return maxDocID
	}
	return c.pl.blocks[c.bi].docs[c.di].DocID
}

// posting returns the current posting; only valid when !done().
func (c *listCursor) posting() Posting {
	return c.pl.blocks[c.bi].docs[c.di]
}

// curBlock returns the current block for block-max bounds; nil when done.
func (c *listCursor) curBlock() *block {
	if c.done() {
		return nil
	}
	return c.pl.blocks[c.bi]
}

// next advances one posting.
func (c *listCursor) next() {
	if c.done() {
		return
	}
	c.di++
	if c.di >= len(c.pl.blocks[c.bi].docs) {
		c.bi++
		c.di = 0
	}
}

// seek advances to the first posting with doc id >= target, skipping
// whole blocks via the sidecar min/max bounds.
func (c *listCursor) seek(target int) {
	if c.done() || c.doc() >= target {
		return
	}
	// Fast path: target within the current block.
	b := c.pl.blocks[c.bi]
	if target <= b.maxDoc {
		lo := c.di
		c.di = lo + sort.Search(len(b.docs)-lo, func(i int) bool { return b.docs[lo+i].DocID >= target })
		return
	}
	// Binary search the remaining blocks by maxDoc bound.
	lo := c.bi + 1
	c.bi = lo + sort.Search(len(c.pl.blocks)-lo, func(i int) bool { return c.pl.blocks[lo+i].maxDoc >= target })
	c.di = 0
	if c.done() {
		return
	}
	b = c.pl.blocks[c.bi]
	if target > b.minDoc {
		c.di = sort.Search(len(b.docs), func(i int) bool { return b.docs[i].DocID >= target })
	}
}
