package index

import (
	"cmp"
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
	// K bounds the result: the K best documents by Score (ties broken by
	// ascending doc id, matching the engine's stable sort).
	K int
	// Norm divides the weighted sum (the list average's Σweights, > 0).
	// TopKRanked ranks on the quotient, the raw score the exhaustive path
	// reports: two sums a float apart can divide to one score, and then
	// the smaller id must win.
	Norm float64
	// TermWeight scores one term in one document. TopKRanked requires
	// it to be monotone: non-decreasing in tf, non-increasing in docLen
	// (df and n are fixed per query) — the property that makes the
	// blocks' and lists' (tf, length) frontiers sound upper bounds.
	TermWeight func(tf, df, n, docLen int) float64
}

// RankedDoc is one block-pruned top-k result.
type RankedDoc struct {
	ID int
	// Score is the raw score: the weighted sum divided by the plan's Norm.
	Score float64
}

// termCursor walks one plan term's posting lists document-at-a-time,
// tracking the block-level and global score upper bounds pruning needs.
type termCursor struct {
	idx    int          // plan term index
	curs   []listCursor // one[:] for a one-list term, so never copy a termCursor
	one    [1]listCursor
	df     int
	ub     float64 // weight × max possible term weight, list-global
	w      float64
	inLang func(id int) bool // nil when every document passes
	cur    int               // current doc id; maxDocID when exhausted
}

func (tc *termCursor) align() {
	tc.cur = maxDocID
	for i := range tc.curs {
		tc.cur = min(tc.cur, tc.curs[i].doc())
	}
}

// seek advances to the first doc id >= target.
func (tc *termCursor) seek(target int) {
	for i := range tc.curs {
		tc.curs[i].seek(target)
	}
	tc.align()
}

// advance moves past the current doc.
func (tc *termCursor) advance() {
	for i := range tc.curs {
		if c := &tc.curs[i]; c.doc() == tc.cur {
			c.next()
		}
	}
	tc.align()
}

// freqAt returns the merged term frequency at the current doc.
func (tc *termCursor) freqAt() int {
	tf := 0
	for i := range tc.curs {
		if c := &tc.curs[i]; c.doc() == tc.cur {
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
	for i := range tc.curs {
		if c := &tc.curs[i]; c.doc() == tc.cur {
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

// blockBound returns the block-max upper bound on this term's weighted
// contribution at the current doc, from the frontiers of exactly the
// blocks the cursors sit in. The single-list case — the common one —
// takes the max over the block's frontier, memoized per block on the
// cursor; a term merged from several expansion lists sums the blocks'
// peak frequencies at their shortest length, which stays sound when
// frequencies add across the lists.
func (tc *termCursor) blockBound(plan *RankPlan, n int) float64 {
	if len(tc.curs) == 1 {
		c := &tc.curs[0]
		if bi := int32(c.bi()); bi != c.boundBi {
			c.boundBi = bi
			c.bound = frontierBound(c.curBlock().frontier[:], plan, tc.w, tc.df, n)
		}
		return c.bound
	}
	maxF, minL := 0, math.MaxInt
	for i := range tc.curs {
		if c := &tc.curs[i]; c.doc() == tc.cur {
			f, l := peak(c.curBlock().frontier[:])
			maxF, minL = maxF+f, min(minL, l)
		}
	}
	return tc.w * plan.TermWeight(maxF, tc.df, n, minL)
}

// TopKRanked evaluates a flat ranked query with block-max WAND: a
// document-at-a-time traversal over per-term cursors that uses the
// blocks' and lists' (tf, length) frontiers plus a top-k score threshold
// to skip postings — and whole blocks — that cannot reach the current top
// k. Results are exactly the K best documents by Score (ties to the
// smaller doc id) among documents with Score > 0, identical to
// exhaustively scoring every document.
//
// tfs holds each returned document's per-plan-term match frequencies
// (language-filtered, merged across fields and modifier expansions), for
// term stats: document i's at tfs[i·len(plan.Terms):], in plan order. dfs
// holds the per-plan-term document frequencies. ok is false when some term has no block bounds to prune on (a phrase, a
// field without postings, a free-form-text term): Index.Match walks
// such a query instead.
func (ix *Index) TopKRanked(sc *Scratch, plan RankPlan, opts LookupOptions) (docs []RankedDoc, tfs, dfs []int, ok bool) {
	if plan.K <= 0 || plan.TermWeight == nil {
		return nil, nil, nil, false
	}
	n, nt := len(ix.recs), len(plan.Terms)
	sc.sizeFor(nt, 0)
	resolved := take(&sc.nodes, nt)
	for i, rt := range plan.Terms {
		if err := ix.resolveTerm(sc, &resolved[i], rt.Term, opts); err != nil || !resolved[i].ranked() {
			return nil, nil, nil, false
		}
	}

	// Build cursors for terms that have postings at all, each with its
	// list-global bound: the list's frontier, or for a merged term the
	// lists' peaks as blockBound combines them.
	ptrs := make([]*termCursor, 2*nt)
	cursors, atPivot := ptrs[:0:nt], ptrs[nt:nt]
	for i := range resolved {
		rl := &resolved[i]
		if len(rl.lists) == 0 {
			continue
		}
		tc := &sc.termCursors(rl.lists)[0]
		tc.idx, tc.df, tc.w, tc.inLang = i, rl.docFreq(sc), plan.Terms[i].Weight, rl.inLang
		switch {
		case tc.df == 0:
		case len(rl.lists) == 1:
			tc.ub = frontierBound(rl.lists[0].frontier(), &plan, tc.w, tc.df, n)
		default:
			maxF, minL := 0, math.MaxInt
			for i := range rl.lists {
				f, l := peak(rl.lists[i].frontier())
				maxF, minL = maxF+f, min(minL, l)
			}
			tc.ub = tc.w * plan.TermWeight(maxF, tc.df, n, minL)
		}
		cursors = append(cursors, tc)
	}

	// rankedOrder orders candidates exactly as the engine's default sort
	// does: score descending, doc id ascending. Documents are offered in
	// ascending id order, so requiring a strict improvement over the
	// heap's worst keeps selection exact — an equal-score later doc could
	// never displace the kept one anyway. Every bound is divided by Norm
	// before it meets the threshold: division by a positive number is
	// monotone, so a bound on the sum stays a bound on the score.
	h := topk.New(plan.K, rankedOrder)
	sortCursors(cursors)
	for len(cursors) > 0 {
		// Drop exhausted cursors (sorted last).
		for len(cursors) > 0 && cursors[len(cursors)-1].cur == maxDocID {
			cursors = cursors[:len(cursors)-1]
		}
		if len(cursors) == 0 {
			break
		}
		theta := 0.0
		if h.Full() {
			theta = h.Worst().Score
		}
		// WAND pivot: the first cursor position where the cumulative
		// upper bound could strictly beat the current top-k threshold.
		// Equal scores lose to the smaller (already seen) doc id, so a
		// strict comparison is exact, not an approximation.
		pivot, acc := -1, 0.0
		for i, tc := range cursors {
			acc += tc.ub
			if acc/plan.Norm > theta {
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
		if cursors[0].cur != pivotDoc {
			// Advance the smallest cursor up to the pivot, one binary
			// search over its list.
			cursors[0].seek(pivotDoc)
			sortCursors(cursors)
			continue
		}
		// All lead cursors aligned on the pivot: check the block bound
		// before paying for a full evaluation.
		blockBound := 0.0
		atPivot = atPivot[:0]
		for _, tc := range cursors {
			if tc.cur != pivotDoc {
				break
			}
			atPivot = append(atPivot, tc)
			blockBound += tc.blockBound(&plan, n)
		}
		if blockBound/plan.Norm > theta {
			// Accumulate in plan-term order — the float addition order
			// of the exhaustive evaluator — so both paths produce
			// bit-identical scores (zero contributions add exactly 0).
			sortByPlanIdx(atPivot)
			sum := 0.0
			docLen := int(ix.counts[pivotDoc])
			for _, tc := range atPivot {
				if tf := tc.matchFreq(pivotDoc); tf > 0 {
					sum += tc.w * plan.TermWeight(tf, tc.df, n, docLen)
				}
			}
			if score := sum / plan.Norm; score > theta {
				h.Push(RankedDoc{ID: pivotDoc, Score: score})
			}
			for _, tc := range atPivot {
				tc.advance()
			}
		} else {
			// The aligned blocks cannot beat the threshold: skip to the
			// earliest aligned block end, capped by the first non-aligned
			// cursor. Every doc before it matches only a subset of the
			// aligned terms within the same blocks, and bounds are
			// non-negative, so a subset sums no higher.
			target := maxDocID
			if len(atPivot) < len(cursors) {
				target = cursors[len(atPivot)].cur
			}
			for _, tc := range atPivot {
				target = min(target, tc.blockSkipTarget())
			}
			for _, tc := range atPivot {
				tc.seek(target)
			}
		}
		sortCursors(cursors)
	}

	out := h.Sorted()
	ints := take(&sc.ints, (1+len(out))*nt)
	dfs, tfs = ints[:nt], ints[nt:]
	for ti := range resolved {
		dfs[ti] = resolved[ti].docFreq(sc)
		for oi, d := range out {
			tfs[oi*nt+ti] = resolved[ti].probe(d.ID)
		}
	}
	return out, tfs, dfs, true
}

// matchFreq returns the term frequency at doc id, honoring the term's
// language constraint the way map lookups do.
func (tc *termCursor) matchFreq(id int) int {
	if tc.inLang != nil && !tc.inLang(id) {
		return 0
	}
	return tc.freqAt()
}

// wordLists resolves one word of a term's value to its posting lists: the
// word's modifier expansions in each of fields.
func (ix *Index) wordLists(sc *Scratch, fields []attr.Field, word string, t query.Term, opts LookupOptions) []postingList {
	from := len(sc.lists)
	for _, f := range fields {
		fi := ix.fields[f]
		if fi == nil {
			continue
		}
		sc.vocab = ix.expandWord(sc.vocab[:0], fi, word, t, opts)
		for _, vt := range sc.vocab {
			if pl, ok := fi.lookup(vt); ok {
				sc.lists = append(sc.lists, pl)
			}
		}
	}
	return sc.lists[from:len(sc.lists):len(sc.lists)]
}

// rankedOrder is the result order of the ranked fast path: higher score
// first, ties to the smaller doc id — the engine's default score sort
// with its stable id tiebreak.
func rankedOrder(a, b RankedDoc) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	return a.ID - b.ID
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
