package index

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
)

// blockSize is the number of postings per block. Blocks are the pruning
// unit of the sidecar block index: each carries its max doc id and a
// (term frequency, document length) frontier bounding its scores, so that
// boolean and ranked traversals can skip whole blocks that cannot
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

// peak returns the largest frequency and the shortest length over a
// frontier's entries: the first entry's freq and the last live entry's
// len, since entries stay freq-descending (and so len-descending) and
// merges keep the larger freq and the smaller len. Over a block's or a
// list's frontier these are exactly its postings' max tf and min length.
func peak(fr []tfLen) (maxFreq, minLen int) {
	for _, e := range fr {
		if e.freq == 0 {
			break
		}
		minLen = int(e.len)
	}
	return int(fr[0].freq), minLen
}

// block is the sidecar of one run of blockSize postings of a list (the
// last run may be shorter): block bi covers postings [bi·blockSize,
// (bi+1)·blockSize). Postings are ascending by doc id, so the runs'
// doc-id ranges never overlap.
type block struct {
	maxDoc int32
	// frontier is the Pareto frontier of the block's (freq, len) pairs:
	// every posting is dominated by some entry, so the max monotone term
	// weight over the frontier is a tight upper bound on the block — far
	// tighter than its peak (max tf, min length), which pairs one
	// document's frequency with a different document's length.
	frontier [blockFrontierMax]tfLen
	// posOff is where the block's first posting's positions start in the
	// list's pos: decoding a block's positions starts here.
	posOff uint32
}

// satFreq is the term frequency a posting's freqs byte saturates at: a
// posting of that many occurrences or more has its exact frequency as a
// uvarint at the head of its positions.
const satFreq = 255

// arena holds the postings of one or more terms, term after term: posting
// i is document docs[i], occurring freqs[i] times in it (see satFreq), and
// pos holds every posting's positions, posting after posting, each one's
// as uvarint deltas counted from 0. Only phrase and proximity checks read
// positions, so only they decode them (listCursor); everything else reads
// ids and frequencies in place. A term's blocks follow one another in
// blocks, and fronts holds the list frontiers of the terms of two or more
// blocks. Offsets into pos are 32-bit. Build lays each field's terms out
// in one arena, term after term, every array at its exact size, and its
// chunks write their postings straight into it.
type arena struct {
	docs   []int32 // ascending doc ids within a term
	freqs  []uint8 // each posting's term frequency, saturating at satFreq
	pos    []byte  // every posting's positions, ascending within a posting
	blocks []block
	fronts [][listFrontierMax]tfLen
}

// postingList is one term's postings, a view of its arena: the n postings
// from docs[doc], the blocks from blocks[blk], and the list frontier WAND
// pivoting starts from — fronts[fr-1], or for a list of one block (fr 0)
// its block's: pushFrontier only merges into dominating pairs, so that is
// as sound a bound. The slices it hands out are capped.
type postingList struct {
	a               *arena
	doc, n, blk, fr uint32
}

// numBlocks returns how many blocks n postings take.
func numBlocks(n int) int { return (n + blockSize - 1) / blockSize }

// numDocs returns the posting count (= document frequency: each document
// contributes one posting per term).
func (pl *postingList) numDocs() int { return int(pl.n) }

// docs and freqs return the list's part of its arena's arrays, capped;
// block returns its block bi, and frontier its list frontier.
func (pl *postingList) docs() []int32 { return pl.a.docs[pl.doc : pl.doc+pl.n : pl.doc+pl.n] }

func (pl *postingList) freqs() []uint8 { return pl.a.freqs[pl.doc : pl.doc+pl.n : pl.doc+pl.n] }

func (pl *postingList) block(bi int) *block { return &pl.a.blocks[int(pl.blk)+bi] }

func (pl *postingList) frontier() []tfLen {
	if pl.fr == 0 {
		return pl.block(0).frontier[:]
	}
	return pl.a.fronts[pl.fr-1][:]
}

// note writes the list's blocks' bounds and frontiers and its list
// frontier, folding in its postings in order; the arena's docs, freqs, pos
// and every block's posOff already hold them. lens are the documents'
// token counts (0, "unknown", keeps bounds conservative).
func (pl *postingList) note(lens []int32) {
	for i := range int(pl.n) {
		b, e := pl.block(i/blockSize), pl.pair(i, lens)
		b.maxDoc = pl.a.docs[int(pl.doc)+i]
		pushFrontier(b.frontier[:], e)
		if pl.fr != 0 {
			pushFrontier(pl.frontier(), e)
		}
	}
}

// pair returns posting i's (frequency, document length).
func (pl *postingList) pair(i int, lens []int32) tfLen {
	return tfLen{freq: int32(pl.freq(i)), len: lens[pl.docs()[i]]}
}

// freq returns posting i's term frequency: its freqs byte, unless that
// saturates, and then the count at the head of its positions, found by
// skipping from its block's first posting.
func (pl *postingList) freq(i int) int {
	if f := pl.a.freqs[int(pl.doc)+i]; f < satFreq {
		return int(f)
	}
	bi := i / blockSize
	tf, _ := pl.head(i, pl.skip(bi*blockSize, int(pl.block(bi).posOff), i))
	return tf
}

// head returns the term frequency of posting i, whose positions start at
// byte off, and the offset of its first position's delta.
func (pl *postingList) head(i, off int) (tf, first int) {
	if f := pl.a.freqs[int(pl.doc)+i]; f < satFreq {
		return int(f), off
	}
	v, n := binary.Uvarint(pl.a.pos[off:])
	return int(v), off + n
}

// skip returns the byte offset of posting i's positions, given that
// posting j's (j <= i) start at off: past as many uvarints as postings j
// to i-1 have positions, and the frequency heading each saturated one.
func (pl *postingList) skip(j, off, i int) int {
	n, freqs := 0, pl.freqs()
	for ; j < i; j++ {
		if f := freqs[j]; f < satFreq {
			n += int(f)
		} else {
			n, off = pl.head(j, skipUvarints(pl.a.pos, off, n))
		}
	}
	return skipUvarints(pl.a.pos, off, n)
}

// skipUvarints returns the offset past the n uvarints at p[off:]. A
// uvarint ends at each byte below 0x80, so it counts those, eight bytes
// at a time while the n-th lies beyond them.
func skipUvarints(p []byte, off, n int) int {
	for n >= 8 && off+8 <= len(p) {
		c := bits.OnesCount64(^binary.LittleEndian.Uint64(p[off:]) & 0x8080808080808080)
		if c >= n {
			break
		}
		n, off = n-c, off+8
	}
	for ; n > 0; off++ {
		if p[off] < 0x80 {
			n--
		}
	}
	return off
}

// decode appends posting i's positions, which start at byte off, to dst
// and returns it with the offset past them.
func (pl *postingList) decode(dst []int32, i, off int) ([]int32, int) {
	tf, off := pl.head(i, off)
	n, pos := len(dst), pl.a.pos
	dst = slices.Grow(dst, tf)[:n+tf]
	p := uint64(0)
	for k := n; k < len(dst); k++ {
		if b := pos[off]; b < 0x80 { // nearly every delta is one byte
			p, off = p+uint64(b), off+1
		} else {
			d, w := binary.Uvarint(pos[off:])
			p, off = p+d, off+w
		}
		dst[k] = int32(p)
	}
	return dst, off
}

// appendPosting appends one posting's frequency and positions, which
// must ascend, to the arena's freqs and pos, postingBytes of them; the
// caller writes its id.
func (a *arena) appendPosting(positions []int32) {
	tf := len(positions)
	a.freqs = append(a.freqs, uint8(min(tf, satFreq)))
	if tf >= satFreq {
		a.pos = binary.AppendUvarint(a.pos, uint64(tf))
	}
	prev := int32(0)
	for _, p := range positions {
		if d := p - prev; d < 0x80 {
			a.pos = append(a.pos, byte(d))
		} else {
			a.pos = binary.AppendUvarint(a.pos, uint64(d))
		}
		prev = p
	}
}

// postingBytes returns how many bytes appendPosting appends to pos for
// one posting's positions: a uvarint takes a byte per 7 bits.
func postingBytes(positions []int32) int {
	n, prev := 0, int32(0)
	if tf := len(positions); tf >= satFreq {
		n = (bits.Len(uint(tf)) + 6) / 7
	}
	for _, p := range positions {
		if d := p - prev; d < 0x80 {
			n++
		} else {
			n += (bits.Len32(uint32(d)) + 6) / 7
		}
		prev = p
	}
	return n
}

// occurrences returns the sum of the list's term frequencies.
func (pl *postingList) occurrences() int {
	n := 0
	for i := range int(pl.n) {
		n += pl.freq(i)
	}
	return n
}

// find returns the index of the posting for one doc id.
func (pl *postingList) find(id int) (int, bool) {
	docs := pl.docs()
	i := sort.Search(len(docs), func(k int) bool { return int(docs[k]) >= id })
	return i, i < len(docs) && int(docs[i]) == id
}

// listCursor walks one posting list in doc-id order; seek is a binary
// search forward. A new cursor stands on the first posting. After
// exhaustion, doc() returns maxDocID.
type listCursor struct {
	pl *postingList
	i  int32 // current posting
	// boundBi/bound memoize the ranked path's frontier bound for the
	// block last computed, so consecutive pivots inside one block pay
	// for the TermWeight evaluations once.
	boundBi int32
	bound   float64
	// at is where decoding positions resumes; nil until the cursor first
	// reads them, so the cursors of searches that never do stay small.
	at *posReader
}

// posReader is a listCursor's position decoder: posting next's positions
// start at byte off (next is -1 before the first decode), and buf, reused
// from posting to posting, holds the ones last decoded.
type posReader struct {
	next, off int
	buf       []int32
}

const maxDocID = int(^uint(0) >> 1)

func newListCursor(pl *postingList) listCursor {
	return listCursor{pl: pl, boundBi: -1}
}

// done reports exhaustion.
func (c *listCursor) done() bool {
	return uint32(c.i) >= c.pl.n
}

// doc returns the current doc id, or maxDocID when exhausted.
func (c *listCursor) doc() int {
	if c.done() {
		return maxDocID
	}
	return int(c.pl.a.docs[int(c.pl.doc)+int(c.i)])
}

// freq returns the current posting's term frequency; only valid when
// !done().
func (c *listCursor) freq() int {
	if f := c.pl.a.freqs[int(c.pl.doc)+int(c.i)]; f < satFreq {
		return int(f)
	}
	tf, _ := c.pl.head(int(c.i), c.offset())
	return tf
}

// positions decodes the current posting's positions into the cursor's
// buffer, valid until the next call; only valid when !done().
func (c *listCursor) positions() []int32 {
	off := c.offset()
	r := c.at
	r.buf, r.off = c.pl.decode(r.buf[:0], int(c.i), off)
	r.next = int(c.i) + 1
	return r.buf
}

// offset returns the byte offset of the current posting's positions,
// skipping forward from where the last decode in its block ended, or from
// the block's start.
func (c *listCursor) offset() int {
	if c.at == nil {
		c.at = &posReader{next: -1, buf: make([]int32, 0, 8)} // a few positions a posting, mostly
	}
	r, i := c.at, int(c.i)
	if lo := c.bi() * blockSize; r.next < lo || r.next > i {
		r.next, r.off = lo, int(c.pl.block(c.bi()).posOff)
	}
	r.off, r.next = c.pl.skip(r.next, r.off, i), i
	return r.off
}

// bi returns the current block's index.
func (c *listCursor) bi() int { return int(c.i) / blockSize }

// curBlock returns the current block for block-max bounds; nil when done.
func (c *listCursor) curBlock() *block {
	if c.done() {
		return nil
	}
	return c.pl.block(c.bi())
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
	docs := c.pl.docs()
	hi := len(docs)
	if target <= int(c.curBlock().maxDoc) {
		hi = min(hi, (c.bi()+1)*blockSize)
	}
	lo := int(c.i)
	c.i = int32(lo + sort.Search(hi-lo, func(k int) bool { return int(docs[lo+k]) >= target }))
}
