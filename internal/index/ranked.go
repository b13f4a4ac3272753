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

// blockBound returns the block-max upper bound on this term's weighted
// contribution at the current doc, from the frontiers of exactly the
// blocks the cursors sit in. The single-list case — the common one —
// takes the max over the block's frontier, memoized per block on the
// cursor; a term merged from several expansion lists sums the blocks'
// peak frequencies at their shortest length, which stays sound when
// frequencies add across the lists.
func (tc *termCursor) blockBound(plan *RankPlan, n int) float64 {
	if len(tc.curs) == 1 {
		c := tc.curs[0]
		if bi := int32(c.bi()); bi != c.boundBi {
			c.boundBi = bi
			c.bound = frontierBound(c.curBlock().frontier[:], plan, tc.w, tc.df, n)
		}
		return c.bound
	}
	maxF, minL := 0, math.MaxInt
	for _, c := range tc.curs {
		if c.doc() == tc.cur {
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

	// Build cursors for terms that have postings at all, each with its
	// list-global bound: the list's frontier, or for a merged term the
	// lists' peaks as blockBound combines them.
	cursors := make([]*termCursor, 0, len(resolved))
	for i, rl := range resolved {
		if len(rl.lists) == 0 {
			continue
		}
		tc := newTermCursor(rl.lists)
		tc.idx, tc.df, tc.w, tc.inLang = i, rl.df, plan.Terms[i].Weight, rl.inLang
		switch {
		case tc.df == 0:
		case len(rl.lists) == 1:
			tc.ub = frontierBound(rl.lists[0].frontier[:], &plan, tc.w, tc.df, n)
		default:
			maxF, minL := 0, math.MaxInt
			for _, pl := range rl.lists {
				f, l := peak(pl.frontier[:])
				maxF, minL = maxF+f, min(minL, l)
			}
			tc.ub = tc.w * plan.TermWeight(maxF, tc.df, n, minL)
		}
		cursors = append(cursors, tc)
	}

	// rankedBefore orders candidates exactly as the engine's default sort
	// does: score descending, doc id ascending. Documents are offered in
	// ascending id order, so requiring a strict improvement over the
	// heap's worst keeps selection exact — an equal-score later doc could
	// never displace the kept one anyway. Every bound is divided by Norm
	// before it meets the threshold: division by a positive number is
	// monotone, so a bound on the sum stays a bound on the score.
	h := topk.New(plan.K, rankedBefore)
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

// rankedBefore is the result order of the ranked fast path: higher score
// first, ties to the smaller doc id — the engine's default score sort
// with its stable id tiebreak.
func rankedBefore(a, b RankedDoc) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
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
