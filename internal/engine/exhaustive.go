package engine

// This file is the oracle: the evaluator that materialises the filter's
// match set, looks every ranking term up into a doc→info map over its whole
// posting lists, and scores every match. Only an engine whose
// Config.Exhaustive is set runs it — the benchmark's reference fleet and the
// differential and fuzz tests, which hold the cursor evaluator
// (searchCursors, rankedFastPath) to it answer for answer. It shares with
// the cursors what defines an answer rather than how to find it: the query
// rewrite, scoreExpr, rankAndCut, and the one index it reads.

import (
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/result"
)

func (e *Engine) searchExhaustive(ix *index.Index, q *query.Query, filter, ranking query.Expr, opts index.LookupOptions) ([]scoredDoc, []result.TermStat, []int, error) {
	// The filter match set; no (surviving) filter means every document
	// qualifies.
	matched := ix.AllDocs()
	if filter != nil {
		set, err := ix.EvalFilter(filter, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		matched = set
	}
	cands, maxScore, ev, err := e.scoreDocs(ix, matched, ranking, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	kept := e.rankAndCut(ix, cands, maxScore, q, filter != nil, ranking != nil)
	if ev == nil {
		return kept, nil, nil, nil
	}
	var stats []result.TermStat
	offs := []int{0}
	for _, sd := range kept {
		stats = ev.appendStats(stats, sd.id)
		offs = append(offs, len(stats))
	}
	return kept, stats, offs, nil
}

// scoreDocs computes each matched document's raw score for the ranking
// expression and the highest of them. The returned evaluator assembles
// TermStats for the documents that survive the answer specification.
func (e *Engine) scoreDocs(ix *index.Index, matched map[int]bool, ranking query.Expr, opts index.LookupOptions) ([]scoredDoc, float64, *rankEvaluator, error) {
	out := make([]scoredDoc, 0, len(matched))
	if ranking == nil {
		for id := range matched {
			out = append(out, scoredDoc{id: id})
		}
		return out, 0, nil, nil
	}
	ev, err := e.newRankEvaluator(ix, ranking, opts)
	if err != nil {
		return nil, 0, nil, err
	}
	maxScore := 0.0
	for id := range matched {
		score := scoreExpr(ranking, func(t *query.TermExpr) float64 { return ev.nodeWeight(t, id) })
		out = append(out, scoredDoc{id: id, score: score})
		if score > maxScore {
			maxScore = score
		}
	}
	return out, maxScore, ev, nil
}

// rankEvaluator caches term matches for one query execution: by node,
// for scoring, and once per distinct term, for the statistics.
type rankEvaluator struct {
	nodes       map[*query.TermExpr]*index.TermMatch
	terms       []*query.Term      // as reported
	termMatches []*index.TermMatch // termMatches[i] is terms[i]'s
	ix          *index.Index
	scorer      Scorer
}

func (e *Engine) newRankEvaluator(ix *index.Index, ranking query.Expr, opts index.LookupOptions) (*rankEvaluator, error) {
	ev := &rankEvaluator{nodes: map[*query.TermExpr]*index.TermMatch{}, ix: ix, scorer: e.cfg.Scorer}
	byKey := map[string]*index.TermMatch{} // a repeated term is looked up once
	for _, nd := range rankNodes(ranking, nil) {
		key := nd.Term.String()
		m, ok := byKey[key]
		if !ok {
			var err error
			if m, err = ix.Lookup(nd.Term, opts); err != nil {
				return nil, err
			}
			byKey[key] = m
			ev.terms = append(ev.terms, reported(&nd.Term))
			ev.termMatches = append(ev.termMatches, m)
		}
		ev.nodes[nd] = m
	}
	return ev, nil
}

// nodeWeight is the scorer weight of an expression node in document id.
func (ev *rankEvaluator) nodeWeight(t *query.TermExpr, id int) float64 {
	return ev.matchWeight(ev.nodes[t], id)
}

func (ev *rankEvaluator) matchWeight(m *index.TermMatch, id int) float64 {
	if m == nil {
		return 0
	}
	info := m.Docs[id]
	if info == nil {
		return 0
	}
	return ev.scorer.TermWeight(info.Freq, m.DocFreq(), ev.ix.NumDocs(), ev.ix.TokenCount(id))
}

// appendStats appends the TermStats reported with a result document.
func (ev *rankEvaluator) appendStats(stats []result.TermStat, id int) []result.TermStat {
	for i, t := range ev.terms {
		m := ev.termMatches[i]
		info := m.Docs[id]
		if info == nil {
			continue
		}
		stats = append(stats, result.TermStat{
			Term:    t,
			Freq:    info.Freq,
			Weight:  round4(ev.matchWeight(m, id)),
			DocFreq: m.DocFreq(),
		})
	}
	return stats
}
