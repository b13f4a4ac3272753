package index

import (
	"math"

	"starts/internal/attr"
	"starts/internal/query"
	"starts/internal/topk"
)

// RankTerm is one scoring term of a rank plan: an atomic query term and
// the weight its contribution is multiplied by.
type RankTerm struct {
	Term   query.Term
	Weight float64
}

// RankPlan describes a flat ranked query — a weighted sum of per-term
// weights divided by Norm — for block-pruned top-k evaluation. The
// engine builds one from a TermExpr or a list(...) ranking expression.
type RankPlan struct {
	Terms []RankTerm
	// K bounds the result: the K best documents by Sum (ties broken by
	// ascending doc id, matching the engine's stable sort).
	K int
	// Norm divides the weighted sum (the list average's Σweights); the
	// caller applies it, so ordering happens on the undivided sum and
	// no float rounding can disagree with the exhaustive path.
	Norm float64
	// TermWeight scores one term in one document. TopKRanked requires
	// it to be monotone: non-decreasing in tf, non-increasing in docLen
	// (df and n are fixed per query) — the property that makes the
	// sidecar block stats (max tf, min length) sound upper bounds.
	TermWeight func(tf, df, n, docLen int) float64
}

// RankedDoc is one block-pruned top-k result.
type RankedDoc struct {
	ID int
	// Sum is the undivided weighted score sum; divide by the plan's
	// Norm for the raw score.
	Sum float64
	// TFs are the per-plan-term match frequencies (language-filtered,
	// merged across fields and modifier expansions), for term stats.
	TFs []int
}

// rankLists is a one-word text term resolved to its posting lists: the
// word's expansions across the term's fields.
type rankLists struct {
	lists []*postingList
	df    int
	// inLang is the term's language check; nil when every document passes.
	inLang func(id int) bool
}

// termCursor walks one plan term's posting lists document-at-a-time,
// tracking the block-level and global score upper bounds pruning needs.
type termCursor struct {
	idx    int // plan term index
	curs   []*listCursor
	df     int
	ub     float64 // weight × max possible term weight, list-global
	w      float64
	inLang func(id int) bool // nil when every document passes
	cur    int               // current doc id; maxDocID when exhausted
}

func (tc *termCursor) align() {
	tc.cur = maxDocID
	for _, c := range tc.curs {
		if d := c.doc(); d < tc.cur {
			tc.cur = d
		}
	}
}

// seek advances to the first doc id >= target.
func (tc *termCursor) seek(target int) {
	for _, c := range tc.curs {
		c.seek(target)
	}
	tc.align()
}

// advance moves past the current doc.
func (tc *termCursor) advance() {
	d := tc.cur
	for _, c := range tc.curs {
		if c.doc() == d {
			c.next()
		}
	}
	tc.align()
}

// freqAt returns the merged term frequency at the current doc.
func (tc *termCursor) freqAt() int {
	tf := 0
	for _, c := range tc.curs {
		if c.doc() == tc.cur {
			tf += c.freq()
		}
	}
	return tf
}

// blockSkipTarget returns the id up to which blockBound stays valid:
// one past the earliest end of the blocks the aligned lists sit in,
// capped by the first doc of any list positioned beyond cur (whose
// postings blockBound did not count).
func (tc *termCursor) blockSkipTarget() int {
	t := maxDocID
	for _, c := range tc.curs {
		if c.doc() == tc.cur {
			if end := int(c.curBlock().maxDoc) + 1; end < t {
				t = end
			}
		} else if d := c.doc(); d < t {
			t = d
		}
	}
	return t
}

// frontierBound returns the weighted max term weight over a Pareto
// frontier: every posting it covers is dominated by some entry, and the
// weighting is monotone, so the max over entries bounds the max over
// postings — without ever pairing one document's frequency with a
// different document's length.
func frontierBound(fr []tfLen, plan *RankPlan, w float64, df, n int) float64 {
	best := 0.0
	for _, e := range fr {
		if e.freq == 0 {
			break
		}
		if v := w * plan.TermWeight(int(e.freq), df, n, int(e.len)); v > best {
			best = v
		}
	}
	return best
}

// blockEnd returns one past the last doc id covered by the cursor's
// current blocks: up to it, every posting of this term lies in a block
// whose bound rangeBound reports.
func (tc *termCursor) blockEnd() int {
	t := maxDocID
	for _, c := range tc.curs {
		if c.done() {
			continue
		}
		if e := int(c.curBlock().maxDoc) + 1; e < t {
			t = e
		}
	}
	return t
}

// rangeBound bounds this term's contribution to any document covered by
// the cursor's current blocks, whether or not the cursor is aligned on
// it — the non-aligned-cursor half of the wide-skip bound.
func (tc *termCursor) rangeBound(plan *RankPlan, n int) float64 {
	if len(tc.curs) == 1 {
		c := tc.curs[0]
		if c.done() {
			return 0
		}
		if bi := int32(c.bi()); bi != c.boundBi {
			c.boundBi = bi
			c.bound = frontierBound(c.curBlock().frontier[:], plan, tc.w, tc.df, n)
		}
		return c.bound
	}
	maxF, minL := 0, 0
	for _, c := range tc.curs {
		if c.done() {
			continue
		}
		b := c.curBlock()
		maxF += int(b.maxFreq)
		if b.minLen > 0 && (minL == 0 || int(b.minLen) < minL) {
			minL = int(b.minLen)
		}
	}
	if maxF == 0 {
		return 0
	}
	return tc.w * plan.TermWeight(maxF, tc.df, n, minL)
}

// wideBound bounds the score of any document in [pivotDoc, wide) in the
// cursors' current configuration. An aligned cursor whose blocks cover
// the whole range contributes its block bound; an aligned cursor whose
// blocks end early contributes its list-global ub (valid anywhere); a
// cursor positioned past the pivot contributes nothing if it starts at
// or beyond wide, else the bound of the blocks it currently sits in —
// wide is always capped so those blocks cover the range. Each case
// dominates every posting the cursor can contribute inside the range,
// so the sum is sound for any monotone TermWeight.
func wideBound(cursors []*termCursor, nAligned, wide int, plan *RankPlan, n int) float64 {
	bound := 0.0
	for i, tc := range cursors {
		switch {
		case i < nAligned:
			if tc.blockSkipTarget() >= wide {
				bound += tc.blockBound(plan, n)
			} else {
				bound += tc.ub
			}
		case tc.cur < wide:
			bound += tc.rangeBound(plan, n)
		}
	}
	return bound
}

// blockBound returns the block-max upper bound on this term's weighted
// contribution at the current doc: the sidecar stats of exactly the
// blocks the cursors sit in. The single-list case — the common one —
// uses the block's tight Pareto frontier, memoized per block on the
// cursor; merged multi-list terms fall back to the summed
// (maxFreq, minLen) combination, which stays sound when frequencies
// add across expansion lists.
func (tc *termCursor) blockBound(plan *RankPlan, n int) float64 {
	if len(tc.curs) == 1 {
		c := tc.curs[0]
		if c.doc() != tc.cur {
			return 0
		}
		if bi := int32(c.bi()); bi != c.boundBi {
			c.boundBi = bi
			c.bound = frontierBound(c.curBlock().frontier[:], plan, tc.w, tc.df, n)
		}
		return c.bound
	}
	maxF, minL := 0, 0
	for _, c := range tc.curs {
		if c.doc() != tc.cur {
			continue
		}
		b := c.curBlock()
		maxF += int(b.maxFreq)
		if b.minLen > 0 && (minL == 0 || int(b.minLen) < minL) {
			minL = int(b.minLen)
		}
	}
	if maxF == 0 {
		return 0
	}
	return tc.w * plan.TermWeight(maxF, tc.df, n, minL)
}

// Threshold seeding caps: only a term whose posting list is small
// enough that ranking its blocks by bound costs nothing next to
// traversal may seed the threshold, and only its few best blocks are
// scored.
const (
	seedBlockCap  = 256
	seedTopBlocks = 2
)

// seedTheta warm-starts the top-k threshold before traversal: it ranks
// the sparsest seedable term's blocks by their frontier bound, exactly
// scores every document in the best seedTopBlocks of them — the blocks
// where that term's top contributions live — and returns the largest
// float strictly below the k-th best sum found (zero when fewer than k
// documents score positively). WAND's pruning power is the gap between
// the threshold and the block bounds, and a doc-id-ordered traversal
// closes that gap only after scanning a long prefix of every list,
// because the top documents are spread uniformly through the id space;
// a few hundred up-front evaluations start the threshold near its
// final value instead, so the skip logic fires from the first pivot.
//
// Returning a floor — rather than inserting the seeds into the result
// heap — keeps the traversal's exactness argument intact: the heap
// still fills in ascending id order, so strict comparisons still
// resolve score ties to the smaller id. The floor itself is exact: the
// seed sums accumulate in plan-term order (bit-identical to what the
// evaluator later computes for the same documents), so at least k
// documents are known to reach the k-th seed sum, and anything
// strictly below it can never be in the top k. Nextafter makes
// "strictly below the k-th sum" expressible through the existing
// strict-greater gates without evaluating ties away.
//
// Only multi-term plans seed. A single-term query's threshold depends
// on nothing but the term itself, and every document its traversal
// touches is a candidate, so the threshold warms as fast as it
// possibly can — seeding there is pure overhead. Multi-term thresholds
// hinge on co-occurrence, which a doc-ordered walk discovers late.
func (ix *Index) seedTheta(resolved []rankLists, plan *RankPlan, n int) float64 {
	seed, scoring := -1, 0
	for ti := range resolved {
		rl := &resolved[ti]
		if plan.Terms[ti].Weight <= 0 || rl.df == 0 {
			continue
		}
		scoring++
		if len(rl.lists) != 1 {
			continue
		}
		if nb := len(rl.lists[0].blocks); nb <= seedBlockCap &&
			(seed == -1 || nb < len(resolved[seed].lists[0].blocks)) {
			seed = ti
		}
	}
	if seed == -1 || scoring < 2 {
		return 0
	}
	rl := &resolved[seed]
	pl := rl.lists[0]
	w := plan.Terms[seed].Weight
	// The seedTopBlocks highest-bound blocks.
	b0, b1 := -1, -1
	var v0, v1 float64
	for bi := range pl.blocks {
		switch v := frontierBound(pl.blocks[bi].frontier[:], plan, w, rl.df, n); {
		case b0 == -1 || v > v0:
			b0, v0, b1, v1 = bi, v, b0, v0
		case b1 == -1 || v > v1:
			b1, v1 = bi, v
		}
	}
	scratch := topk.New(plan.K, rankedBefore)
	for _, bi := range [seedTopBlocks]int{b0, b1} {
		if bi == -1 {
			continue
		}
		for i := bi * blockSize; i < min((bi+1)*blockSize, len(pl.docs)); i++ {
			id := int(pl.docs[i])
			docLen := int(ix.counts[id])
			sum := 0.0
			for tj := range resolved {
				var tf int
				if tj == seed {
					// The seeding term's frequency is in hand; apply the
					// same language filter probing it would.
					if rl.inLang == nil || rl.inLang(id) {
						tf = pl.freq(i)
					}
				} else {
					tf = resolved[tj].probe(id)
				}
				if tf > 0 {
					sum += plan.Terms[tj].Weight * plan.TermWeight(tf, resolved[tj].df, n, docLen)
				}
			}
			if sum > 0 {
				scratch.Push(RankedDoc{ID: id, Sum: sum})
			}
		}
	}
	if !scratch.Full() {
		return 0
	}
	return math.Nextafter(scratch.Worst().Sum, math.Inf(-1))
}

// TopKRanked evaluates a flat ranked query with block-max WAND: a
// document-at-a-time traversal over per-term cursors that uses the
// sidecar block index (per-block max term frequency and min document
// length) plus a top-k score threshold to skip postings — and whole
// blocks — that cannot reach the current top k. Results are exactly the
// K best documents by Sum (ties to the smaller doc id) among documents
// with Sum > 0, identical to exhaustively scoring every document.
//
// The second return value reports per-plan-term document frequencies.
// ok is false when some term has no block bounds to prune on (a phrase, a
// field without postings, a free-form-text term): Snapshot.Match walks
// such a query instead.
func (s Snapshot) TopKRanked(plan RankPlan, opts LookupOptions) (docs []RankedDoc, dfs []int, ok bool) {
	ix := s.ix
	if plan.K <= 0 || plan.TermWeight == nil {
		return nil, nil, false
	}
	n := len(ix.recs)
	resolved := make([]rankLists, len(plan.Terms))
	for i, rt := range plan.Terms {
		rl, termOK := ix.resolveRankTerm(rt.Term, opts)
		if !termOK {
			return nil, nil, false
		}
		resolved[i] = rl
	}
	dfs = make([]int, len(resolved))
	for i := range resolved {
		dfs[i] = resolved[i].df
	}

	// Build cursors for terms that have postings at all.
	cursors := make([]*termCursor, 0, len(resolved))
	for i, rl := range resolved {
		if len(rl.lists) == 0 {
			continue
		}
		tc := newTermCursor(rl.lists)
		tc.idx, tc.df, tc.w, tc.inLang = i, rl.df, plan.Terms[i].Weight, rl.inLang
		maxF, minL := 0, 0
		for _, pl := range rl.lists {
			maxF += int(pl.maxFreq)
			if pl.minLen > 0 && (minL == 0 || int(pl.minLen) < minL) {
				minL = int(pl.minLen)
			}
		}
		if tc.df > 0 {
			if len(rl.lists) == 1 {
				// Tight list-global bound from the list's Pareto frontier.
				tc.ub = frontierBound(rl.lists[0].frontier[:], &plan, tc.w, tc.df, n)
			} else if maxF > 0 {
				tc.ub = tc.w * plan.TermWeight(maxF, tc.df, n, minL)
			}
		}
		cursors = append(cursors, tc)
	}

	// rankedBefore orders candidates exactly as the engine's default sort
	// does: score descending, doc id ascending. Documents are offered in
	// ascending id order, so requiring a strict improvement over the
	// heap's worst keeps selection exact — an equal-score later doc could
	// never displace the kept one anyway. The seeded floor stands in for
	// the heap's worst until the heap fills; it sits one float below a
	// real k-th best sum, so the strict gates still admit exact ties.
	h := topk.New(plan.K, rankedBefore)
	thetaFloor := ix.seedTheta(resolved, &plan, n)
	var atPivot []*termCursor
	sortCursors(cursors)
	for len(cursors) > 0 {
		// Drop exhausted cursors (sorted last).
		for len(cursors) > 0 && cursors[len(cursors)-1].cur == maxDocID {
			cursors = cursors[:len(cursors)-1]
		}
		if len(cursors) == 0 {
			break
		}
		theta := thetaFloor
		if h.Full() {
			// Once full, the worst kept sum is at least one float above
			// the floor (every push had to clear it strictly).
			theta = h.Worst().Sum
		}
		// WAND pivot: the first cursor position where the cumulative
		// upper bound could strictly beat the current top-k threshold.
		// Equal scores lose to the smaller (already seen) doc id, so a
		// strict comparison is exact, not an approximation.
		pivot, acc := -1, 0.0
		for i, tc := range cursors {
			acc += tc.ub
			if acc > theta {
				pivot = i
				break
			}
		}
		if pivot == -1 {
			break // no remaining document can enter the top k
		}
		pivotDoc := cursors[pivot].cur
		if pivotDoc == maxDocID {
			break
		}
		if cursors[0].cur == pivotDoc {
			// All lead cursors aligned on the pivot: check the sidecar
			// block bound before paying for a full evaluation.
			blockBound := 0.0
			atPivot = atPivot[:0]
			for _, tc := range cursors {
				if tc.cur != pivotDoc {
					break
				}
				atPivot = append(atPivot, tc)
				blockBound += tc.blockBound(&plan, n)
			}
			if blockBound > theta {
				// Accumulate in plan-term order — the float addition order
				// of the exhaustive evaluator — so both paths produce
				// bit-identical scores (zero contributions add exactly 0).
				sortByPlanIdx(atPivot)
				sum := 0.0
				docLen := int(ix.counts[pivotDoc])
				for _, tc := range atPivot {
					tf := tc.matchFreq(pivotDoc)
					if tf > 0 {
						sum += tc.w * plan.TermWeight(tf, tc.df, n, docLen)
					}
				}
				if sum > theta {
					h.Push(RankedDoc{ID: pivotDoc, Sum: sum})
				}
				for _, tc := range atPivot {
					tc.advance()
				}
			} else {
				// The aligned blocks cannot beat the threshold. Jump as far
				// as a sound bound allows. The wide skip targets the
				// sparsest aligned cursor's block end — the big jump when a
				// rare term's block spans thousands of doc ids — and
				// re-bounds every cursor over that whole range: an aligned
				// cursor whose block ends early contributes its list-global
				// ub, a non-aligned cursor its current block's bound (its
				// postings in the range all lie in that block). If even that
				// cannot beat the threshold, no doc in the range can, and
				// the dense cursors leap whole regions in one binary seek.
				target := maxDocID
				wide := 0
				for _, tc := range atPivot {
					if s := tc.blockSkipTarget(); s > wide {
						wide = s
					}
				}
				for _, tc := range cursors[len(atPivot):] {
					if tc.cur < wide {
						if e := tc.blockEnd(); e < wide {
							wide = e
						}
					}
				}
				if wide > pivotDoc+1 && wideBound(cursors, len(atPivot), wide, &plan, n) <= theta {
					target = wide
				} else {
					// Narrow skip: the earliest aligned block end, capped by
					// the first non-aligned cursor; every doc before it
					// matches only a subset of the aligned terms within the
					// same blocks (bounds are non-negative, so a subset sums
					// no higher).
					target = maxDocID
					for _, tc := range atPivot {
						if s := tc.blockSkipTarget(); s < target {
							target = s
						}
					}
					if len(atPivot) < len(cursors) {
						if d := cursors[len(atPivot)].cur; d < target {
							target = d
						}
					}
				}
				if target <= pivotDoc {
					target = pivotDoc + 1
				}
				for _, tc := range cursors {
					if tc.cur < target {
						tc.seek(target)
					}
				}
			}
		} else {
			// Advance the smallest cursor up to the pivot, one binary
			// search over its list.
			cursors[0].seek(pivotDoc)
		}
		sortCursors(cursors)
	}

	out := h.Sorted()
	for oi := range out {
		out[oi].TFs = make([]int, len(resolved))
		for ti := range resolved {
			out[oi].TFs[ti] = resolved[ti].probe(out[oi].ID)
		}
	}
	return out, dfs, true
}

// matchFreq returns the term frequency at doc id, honoring the term's
// language constraint the way map lookups do.
func (tc *termCursor) matchFreq(id int) int {
	if tc.inLang != nil && !tc.inLang(id) {
		return 0
	}
	return tc.freqAt()
}

// probe returns the term frequency of one document by binary-searching
// the resolved posting lists — the per-result stats path.
func (rl *rankLists) probe(id int) int {
	if rl.inLang != nil && !rl.inLang(id) {
		return 0
	}
	tf := 0
	for _, pl := range rl.lists {
		if i, found := pl.find(id); found {
			tf += pl.freq(i)
		}
	}
	return tf
}

// iter returns an iterator over the term's documents.
func (rl *rankLists) iter() docIter { return filtered(newTermCursor(rl.lists), rl.inLang) }

// count returns the number of distinct documents across the lists that
// pass the language check — the document frequency the oracle's map
// lookup reports.
func (rl *rankLists) count() int {
	switch {
	case len(rl.lists) == 0:
		return 0
	case len(rl.lists) == 1 && rl.inLang == nil:
		return rl.lists[0].numDocs()
	}
	return countDocs(rl.iter())
}

// wordLists resolves one word of a term's value to its posting lists: the
// word's modifier expansions in each of fields.
func (ix *Index) wordLists(fields []attr.Field, word string, t query.Term, opts LookupOptions) rankLists {
	var rl rankLists
	for _, f := range fields {
		fi := ix.fields[f]
		if fi == nil {
			continue
		}
		for _, vt := range fi.expandWord(ix.analyzer, word, t, opts) {
			if pl := fi.postings[vt]; pl.numDocs() > 0 {
				rl.lists = append(rl.lists, pl)
			}
		}
	}
	return rl
}

// resolveRankTerm maps one atomic term to its posting lists. ok is false
// for terms the ranked traversal cannot bound block by block: phrases,
// which need positions, and the fields without postings.
func (ix *Index) resolveRankTerm(t query.Term, opts LookupOptions) (rankLists, bool) {
	fields := textFieldsOf(t.EffectiveField())
	words := ix.termWords(t, opts)
	if fields == nil || len(words) > 1 {
		return rankLists{}, false
	}
	if len(words) == 0 {
		// Nothing to match: the term contributes zero weight everywhere
		// (but still counts toward the plan's Norm).
		return rankLists{}, true
	}
	rl := ix.wordLists(fields, words[0], t, opts)
	rl.inLang = ix.languageCheck(t, opts)
	rl.df = rl.count()
	return rl, true
}

// rankedBefore is the result order of the ranked fast path: higher sum
// first, ties to the smaller doc id — the engine's default score sort
// with its stable id tiebreak.
func rankedBefore(a, b RankedDoc) bool {
	if a.Sum != b.Sum {
		return a.Sum > b.Sum
	}
	return a.ID < b.ID
}

// sortCursors orders cursors by current doc id ascending (exhausted
// last); cursor counts are tiny, so insertion sort keeps it alloc-free.
func sortCursors(cs []*termCursor) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].cur < cs[j-1].cur; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// sortByPlanIdx orders the cursors at a pivot by plan-term index, the
// accumulation order score equivalence requires.
func sortByPlanIdx(cs []*termCursor) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].idx < cs[j-1].idx; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
