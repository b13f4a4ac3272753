package engine

import (
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/result"
)

// monotoneScorer gates the block-pruned ranked fast path. A scorer opts
// in by declaring its TermWeight monotone — non-decreasing in term
// frequency and non-increasing in document length, with df and n fixed
// per query — the property that makes the index's sidecar block stats
// (max frequency, min length) sound score upper bounds.
type monotoneScorer interface {
	MonotoneWeight() bool
}

// rawOrderIsFinal reports whether the answer's order can be decided on raw
// scores, before the best of them is known: the query sorts by score
// descending (the default), and the scorer is one of those that declare
// themselves monotone, whose Finalize also keeps the order of raw scores.
// Then a bounded selection by raw score, ties to the smaller id, holds
// exactly the documents the answer returns.
func (e *Engine) rawOrderIsFinal(q *query.Query) bool {
	ms, ok := e.cfg.Scorer.(monotoneScorer)
	sk := q.EffectiveSort()
	return ok && ms.MonotoneWeight() && len(sk) == 1 && sk[0].Field == query.ScoreSortField && !sk[0].Ascending
}

// rankedFastPath attempts the block-pruned top-k execution of a query:
// instead of scoring every document that matches a ranking term, the
// index's WAND traversal visits only postings that might reach the top
// max-docs. It applies when the query is pure ranking (no filter), sorted
// by score descending (the default), over a flat weighted-term ranking
// expression of one-word text terms, under a scorer with monotone term
// weights. The returned documents are ready for answer assembly: finalized
// scores, minimum-score filter applied, term statistics in step. ok is
// false when the query is not eligible — searchCursors evaluates it, as it
// would an eligible one, to the identical answer (equal floats, equal
// order, equal statistics).
func (e *Engine) rankedFastPath(snap index.Snapshot, q *query.Query, filter, ranking query.Expr, opts index.LookupOptions) ([]scoredDoc, [][]result.TermStat, bool) {
	if filter != nil || ranking == nil || !e.rawOrderIsFinal(q) {
		return nil, nil, false
	}
	plan, ok := rankPlanOf(ranking)
	if !ok {
		return nil, nil, false
	}
	plan.K = q.EffectiveMaxResults()
	plan.TermWeight = e.cfg.Scorer.TermWeight
	ranked, dfs, ok := snap.TopKRanked(plan, opts)
	if !ok {
		return nil, nil, false
	}

	// The WAND top document carries the collection's best raw score — the
	// maxScore top-scaled scorers finalize against.
	n := snap.NumDocs()
	maxScore := 0.0
	if len(ranked) > 0 {
		maxScore = ranked[0].Sum / plan.Norm
	}
	terms := make([]query.Term, len(plan.Terms))
	for i, rt := range plan.Terms {
		terms[i] = rt.Term
	}
	first := firstOccurrences(terms)
	kept := make([]scoredDoc, 0, len(ranked))
	stats := make([][]result.TermStat, 0, len(ranked))
	for _, rd := range ranked {
		score := e.cfg.Scorer.Finalize(rd.Sum/plan.Norm, maxScore)
		if score < q.MinScore {
			// Finalize is monotone, so the failing documents are exactly
			// the tail of the descending order.
			break
		}
		kept = append(kept, scoredDoc{id: rd.ID, score: score})
		stats = append(stats, e.termStats(terms, first, rd.TFs, dfs, n, snap.TokenCount(rd.ID)))
	}
	return kept, stats, true
}

// rankPlanOf flattens a ranking expression into a weighted-term plan:
// a bare term, or a list(...) whose items are all plain terms — the
// weighted-average semantics of the exhaustive evaluator. Nested
// operators (and/or/and-not, proximity) score non-additively and fall
// back.
func rankPlanOf(ranking query.Expr) (index.RankPlan, bool) {
	var plan index.RankPlan
	switch n := ranking.(type) {
	case *query.TermExpr:
		w := n.EffectiveWeight()
		if w < 0 {
			return plan, false
		}
		plan.Terms = []index.RankTerm{{Term: n.Term, Weight: w}}
		plan.Norm = 1
		return plan, true
	case *query.List:
		wsum := 0.0
		for _, it := range n.Items {
			t, isTerm := it.(*query.TermExpr)
			if !isTerm {
				return plan, false
			}
			w := t.EffectiveWeight()
			if w < 0 {
				return plan, false
			}
			plan.Terms = append(plan.Terms, index.RankTerm{Term: t.Term, Weight: w})
			wsum += w
		}
		if wsum <= 0 {
			return plan, false
		}
		plan.Norm = wsum
		return plan, true
	default:
		return plan, false
	}
}
