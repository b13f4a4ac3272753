package engine

// This file is the oracle: the evaluator that materialises the filter's
// match set, looks every ranking term up into a doc→info map over its whole
// posting lists, and scores every match. Only an engine whose
// Config.Exhaustive is set runs it — the benchmark's reference fleet and the
// differential and fuzz tests, which hold the cursor evaluator
// (searchCursors, rankedFastPath) to it answer for answer. It shares with
// the cursors what defines an answer rather than how to find it: the query
// rewrite, scoreExpr, rankAndCut, and the index snapshot it runs under.

import (
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/result"
)

func (e *Engine) searchExhaustive(snap index.Snapshot, q *query.Query, filter, ranking query.Expr, opts index.LookupOptions) ([]scoredDoc, [][]result.TermStat, error) {
	// The filter match set; no (surviving) filter means every document
	// qualifies.
	matched := snap.AllDocs()
	if filter != nil {
		set, err := snap.EvalFilter(filter, opts)
		if err != nil {
			return nil, nil, err
		}
		matched = set
	}
	cands, maxScore, ev, err := e.scoreDocs(snap, matched, ranking, opts)
	if err != nil {
		return nil, nil, err
	}
	kept := e.rankAndCut(snap, cands, maxScore, q, filter != nil, ranking != nil)
	if ev == nil {
		return kept, nil, nil
	}
	stats := make([][]result.TermStat, len(kept))
	for k, sd := range kept {
		stats[k] = ev.statsFor(sd.id)
	}
	return kept, stats, nil
}

// scoreDocs computes each matched document's raw score for the ranking
// expression and the highest of them. The returned evaluator assembles
// TermStats for the documents that survive the answer specification.
func (e *Engine) scoreDocs(snap index.Snapshot, matched map[int]bool, ranking query.Expr, opts index.LookupOptions) ([]scoredDoc, float64, *rankEvaluator, error) {
	out := make([]scoredDoc, 0, len(matched))
	if ranking == nil {
		for id := range matched {
			out = append(out, scoredDoc{id: id})
		}
		return out, 0, nil, nil
	}
	ev, err := e.newRankEvaluator(snap, ranking, opts)
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

// rankEvaluator caches term matches for one query execution.
type rankEvaluator struct {
	matches map[string]*index.TermMatch // keyed by term.String()
	nodes   map[*query.TermExpr]*index.TermMatch
	terms   []query.Term
	// termMatches[i] is the match for terms[i], so per-document paths
	// never re-derive the map key.
	termMatches []*index.TermMatch
	snap        index.Snapshot
	scorer      Scorer
}

func (e *Engine) newRankEvaluator(snap index.Snapshot, ranking query.Expr, opts index.LookupOptions) (*rankEvaluator, error) {
	ev := &rankEvaluator{
		matches: map[string]*index.TermMatch{},
		nodes:   map[*query.TermExpr]*index.TermMatch{},
		snap:    snap,
		scorer:  e.cfg.Scorer,
	}
	for _, t := range ranking.Terms(nil) {
		key := t.String()
		if _, ok := ev.matches[key]; ok {
			continue
		}
		m, err := snap.Lookup(t, opts)
		if err != nil {
			return nil, err
		}
		ev.matches[key] = m
		ev.terms = append(ev.terms, t)
		ev.termMatches = append(ev.termMatches, m)
	}
	return ev, nil
}

// nodeWeight is the scorer weight for an expression node on the per-document
// scoring path: the term-match lookup is memoized per node pointer, so
// the SOIF map key (Term.String allocates) is derived once per query
// instead of once per scored document.
func (ev *rankEvaluator) nodeWeight(t *query.TermExpr, id int) float64 {
	m, ok := ev.nodes[t]
	if !ok {
		m = ev.matches[t.Term.String()]
		ev.nodes[t] = m
	}
	return ev.matchWeight(m, id)
}

func (ev *rankEvaluator) matchWeight(m *index.TermMatch, id int) float64 {
	if m == nil {
		return 0
	}
	info := m.Docs[id]
	if info == nil {
		return 0
	}
	return ev.scorer.TermWeight(info.Freq, m.DocFreq(), ev.snap.NumDocs(), ev.snap.TokenCount(id))
}

// statsFor assembles the TermStats reported with a result document.
func (ev *rankEvaluator) statsFor(id int) []result.TermStat {
	var stats []result.TermStat
	for i, t := range ev.terms {
		m := ev.termMatches[i]
		info := m.Docs[id]
		if info == nil {
			continue
		}
		// Reported terms carry field and value but not weights/modifiers.
		rt := query.Term{Field: t.EffectiveField(), Value: t.Value}
		stats = append(stats, result.TermStat{
			Term:    rt,
			Freq:    info.Freq,
			Weight:  round4(ev.matchWeight(m, id)),
			DocFreq: m.DocFreq(),
		})
	}
	return stats
}
