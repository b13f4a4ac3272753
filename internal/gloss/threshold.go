package gloss

import (
	"fmt"
	"math"
	"sort"

	"starts/internal/meta"
	"starts/internal/query"
)

// The vGlOSS estimators of [8] generalize beyond l=0: given a threshold l,
// estimate how many documents at a source would score above l for the
// query, under one of two extreme assumptions about how query terms
// co-occur. Sum(l) assumes the terms appear in disjoint document sets
// (high-correlation pessimism about overlap); Max(l) assumes the term
// document sets overlap maximally. Both need an estimate of a term's
// per-document weight, which the content summary supports: the average
// term frequency is postings/df, and the collection size gives an idf.

// estTermWeight estimates the average contribution of one query term to a
// matching document's score, from summary statistics alone.
func estTermWeight(postings, df, numDocs int) float64 {
	if df == 0 || postings == 0 || numDocs == 0 {
		return 0
	}
	avgTF := float64(postings) / float64(df)
	return (1 + math.Log(avgTF)) * math.Log(1+float64(numDocs)/float64(df))
}

// termEstimate is one query term's summary-derived statistics at a source.
type termEstimate struct {
	df     int
	weight float64 // estimated per-document score contribution × query weight
}

// estimates gathers per-term statistics for a query's probes at one source.
func estimates(ps []probeTerm, s *meta.ContentSummary) []termEstimate {
	out := make([]termEstimate, 0, len(ps))
	for _, p := range ps {
		df := dfOf(s, p)
		postings := 0
		for _, w := range p.words {
			if ti, ok := s.Lookup(p.field, p.tag, w); ok {
				postings += ti.Postings
			}
		}
		out = append(out, termEstimate{
			df:     df,
			weight: p.weight * estTermWeight(postings, df, s.NumDocs),
		})
	}
	return out
}

// VSumL is the vGlOSS Sum(l) estimator: goodness is the estimated number
// of documents scoring above L assuming the query terms occur in disjoint
// document sets. With L = 0 it degenerates to counting all matching
// documents (the mass behind VSum).
type VSumL struct {
	L float64
}

// Name implements Selector.
func (s VSumL) Name() string { return fmt.Sprintf("vGlOSS-Sum(l=%g)", s.L) }

// Rank implements Selector.
func (s VSumL) Rank(q *query.Query, sources []SourceInfo) []Ranked {
	return rankBy(q, sources, func(ps []probeTerm, sum *meta.ContentSummary) float64 {
		g := 0.0
		// Disjoint scenario: each term's df documents score exactly that
		// term's estimated weight.
		for _, te := range estimates(ps, sum) {
			if te.weight > s.L {
				g += float64(te.df)
			}
		}
		return g
	})
}

// VMaxL is the vGlOSS Max(l) estimator: goodness is the estimated number
// of documents scoring above L assuming the query terms co-occur as much
// as possible. Terms are sorted by document frequency; the df_1 smallest
// set of documents is assumed to contain every term, the next df_2-df_1
// documents every term but the rarest, and so on, giving a step function
// of estimated scores.
type VMaxL struct {
	L float64
}

// Name implements Selector.
func (m VMaxL) Name() string { return fmt.Sprintf("vGlOSS-Max(l=%g)", m.L) }

// Rank implements Selector.
func (m VMaxL) Rank(q *query.Query, sources []SourceInfo) []Ranked {
	return rankBy(q, sources, func(ps []probeTerm, sum *meta.ContentSummary) float64 {
		ests := estimates(ps, sum)
		// Sort ascending by df: the rarest term bounds the first block.
		sort.Slice(ests, func(i, j int) bool { return ests[i].df < ests[j].df })
		g := 0.0
		prevDF := 0
		// Documents in block i (between df_{i-1} and df_i) contain terms
		// i..n under maximal overlap; their estimated score is the sum of
		// those terms' weights.
		for i, te := range ests {
			if te.df <= prevDF {
				continue
			}
			score := 0.0
			for _, rest := range ests[i:] {
				score += rest.weight
			}
			if score > m.L {
				g += float64(te.df - prevDF)
			}
			prevDF = te.df
		}
		return g
	})
}
