package index

import "sort"

// blockSize is the number of postings per block. Blocks are the pruning
// unit of the sidecar block index: each carries upper-bound statistics
// (max doc id, max term frequency, min document length) so that boolean
// and ranked traversals can skip whole blocks that cannot contribute to
// the answer. 128 keeps the sidecar under 1% of posting memory while
// making a skipped block worth ~128 posting visits.
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
// freq 0 marks an unused slot of a frontier array.
type tfLen struct {
	freq, len int32
}

// pushFrontier inserts a candidate into a dominance-free frontier held in
// a fixed array (unused slots zero, live entries first), kept sorted by
// freq descending (and therefore len descending). It drops dominated
// entries and merges the two smallest-freq entries into a pair that
// dominates both whenever the frontier would outgrow the array.
func pushFrontier(fr []tfLen, e tfLen) {
	var buf [listFrontierMax + 1]tfLen
	kept := buf[:0]
	for _, x := range fr {
		if x.freq == 0 {
			break
		}
		if x.freq >= e.freq && x.len <= e.len {
			return // dominated by an existing entry
		}
		if !(e.freq >= x.freq && e.len <= x.len) {
			kept = append(kept, x)
		}
	}
	kept = append(kept, e)
	for i := len(kept) - 1; i > 0 && kept[i].freq > kept[i-1].freq; i-- {
		kept[i], kept[i-1] = kept[i-1], kept[i]
	}
	for len(kept) > len(fr) {
		a, b := kept[len(kept)-2], kept[len(kept)-1] // a.freq >= b.freq
		kept[len(kept)-2] = tfLen{freq: a.freq, len: min(a.len, b.len)}
		kept = kept[:len(kept)-1]
	}
	clear(fr[copy(fr, kept):])
}

// block is the sidecar of one run of blockSize postings of a list (the
// last run may be shorter): block bi covers postings [bi·blockSize,
// (bi+1)·blockSize). Postings are ascending by doc id, so the runs'
// doc-id ranges never overlap.
type block struct {
	maxDoc int32
	// maxFreq is the largest term frequency of any posting in the block:
	// the tf half of a block-max score bound.
	maxFreq int32
	// minLen is the smallest token count of any document in the block:
	// the length-normalization half of a block-max score bound. Zero
	// while every length is unknown (the conservative bound).
	minLen int32
	// frontier is the Pareto frontier of the block's (freq, len) pairs:
	// every posting is dominated by some entry, so the max monotone term
	// weight over the frontier is a tight upper bound on the block — far
	// tighter than the (maxFreq, minLen) combination, which pairs one
	// document's frequency with a different document's length.
	frontier [blockFrontierMax]tfLen
}

// postingList is the per-term entry of a field index, as three arrays
// indexed by posting: posting i is document docs[i], and its positions
// are pos[ends[i-1]:ends[i]] (from 0 for i = 0), so its term frequency is
// their count. No posting owns any storage of its own.
type postingList struct {
	docs   []int32 // ascending doc ids
	ends   []int32 // end offset in pos of each posting's positions
	pos    []int32 // every posting's positions, ascending within a posting
	blocks []block
	// maxFreq / minLen aggregate the block stats list-wide, the global
	// upper bound WAND pivoting starts from; frontier is the list-wide
	// Pareto frontier, the tight version of the same bound.
	maxFreq  int32
	minLen   int32
	frontier [listFrontierMax]tfLen
}

// note folds posting i, already in the arrays, into its block's and the
// list's bounds, opening the block at its first posting. Postings must be
// noted in order; docLen==0 means "unknown" and keeps bounds conservative.
func (pl *postingList) note(i int, docLen int32) {
	if i%blockSize == 0 {
		pl.blocks = append(pl.blocks, block{})
	}
	b := &pl.blocks[i/blockSize]
	b.maxDoc = pl.docs[i]
	f := int32(pl.freq(i))
	b.maxFreq = max(b.maxFreq, f)
	if docLen > 0 && (b.minLen == 0 || docLen < b.minLen) {
		b.minLen = docLen
	}
	e := tfLen{freq: f, len: docLen}
	pushFrontier(b.frontier[:], e)
	pushFrontier(pl.frontier[:], e)
	pl.maxFreq = max(pl.maxFreq, b.maxFreq)
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
	return len(pl.docs)
}

// freq returns posting i's term frequency.
func (pl *postingList) freq(i int) int { return len(pl.positions(i)) }

// positions returns posting i's positions, capacity clipped so that an
// append can never reach the list's storage.
func (pl *postingList) positions(i int) []int32 {
	a := int32(0)
	if i > 0 {
		a = pl.ends[i-1]
	}
	return pl.pos[a:pl.ends[i]:pl.ends[i]]
}

// find returns the index of the posting for one doc id.
func (pl *postingList) find(id int) (int, bool) {
	if pl == nil {
		return 0, false
	}
	i := sort.Search(len(pl.docs), func(k int) bool { return int(pl.docs[k]) >= id })
	return i, i < len(pl.docs) && int(pl.docs[i]) == id
}

// listCursor walks one posting list in doc-id order; seek is a binary
// search forward. A new cursor stands on the first posting. After
// exhaustion, doc() returns maxDocID.
type listCursor struct {
	pl *postingList
	i  int // current posting
	// boundBi/bound memoize the ranked path's frontier bound for the
	// block last computed, so consecutive pivots inside one block pay
	// for the TermWeight evaluations once.
	boundBi int
	bound   float64
}

const maxDocID = int(^uint(0) >> 1)

func newListCursor(pl *postingList) *listCursor {
	return &listCursor{pl: pl, boundBi: -1}
}

// done reports exhaustion.
func (c *listCursor) done() bool {
	return c.pl == nil || c.i >= len(c.pl.docs)
}

// doc returns the current doc id, or maxDocID when exhausted.
func (c *listCursor) doc() int {
	if c.done() {
		return maxDocID
	}
	return int(c.pl.docs[c.i])
}

// freq and positions describe the current posting; only valid when
// !done().
func (c *listCursor) freq() int          { return c.pl.freq(c.i) }
func (c *listCursor) positions() []int32 { return c.pl.positions(c.i) }

// bi returns the current block's index.
func (c *listCursor) bi() int { return c.i / blockSize }

// curBlock returns the current block for block-max bounds; nil when done.
func (c *listCursor) curBlock() *block {
	if c.done() {
		return nil
	}
	return &c.pl.blocks[c.bi()]
}

// next advances one posting.
func (c *listCursor) next() {
	if !c.done() {
		c.i++
	}
}

// seek advances to the first posting with doc id >= target: within the
// current block when the block's maxDoc bound says the target is there,
// else over the rest of the list.
func (c *listCursor) seek(target int) {
	if c.done() || c.doc() >= target {
		return
	}
	hi := len(c.pl.docs)
	if target <= int(c.curBlock().maxDoc) {
		hi = min(hi, (c.bi()+1)*blockSize)
	}
	lo, docs := c.i, c.pl.docs
	c.i = lo + sort.Search(hi-lo, func(k int) bool { return int(docs[lo+k]) >= target })
}
