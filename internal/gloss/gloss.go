// Package gloss implements content-summary-based source selection — the
// first of the three metasearch tasks. The estimators follow the GlOSS
// family the paper cites ([7] bGlOSS for Boolean sources, [8] vGlOSS
// Max(l)/Sum(l) for vector-space sources): from nothing but each source's
// exported content summary, estimate how good the source is for a query
// and rank the sources, so the metasearcher contacts only the promising
// ones.
package gloss

import (
	"math/rand"
	"sort"
	"strings"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/text"
)

// SourceInfo is what a selector knows about one source: its harvested
// content summary (and, optionally, metadata).
type SourceInfo struct {
	ID      string
	Summary *meta.ContentSummary
	Meta    *meta.SourceMeta
}

// Ranked is one source with its estimated goodness for a query.
type Ranked struct {
	ID       string
	Goodness float64
}

// Selector ranks sources by estimated goodness for a query, best first.
// Ties break by source ID for determinism.
type Selector interface {
	Name() string
	Rank(q *query.Query, sources []SourceInfo) []Ranked
}

// probeTerm is a query term reduced to what a summary can answer.
type probeTerm struct {
	field  attr.Field
	tag    lang.Tag
	words  []string
	weight float64
}

// probeSet is one query's ranking terms (or filter terms for a filter-only
// query) as summary probes. The words are tokenized once; pushing them
// through a summary's processing flags (case folding, stemming), so that
// probe vocabulary matches summary vocabulary, happens once per distinct
// flag pair, however many sources share it.
type probeSet struct {
	raw  []probeTerm
	norm [3][]probeTerm // by flag pair other than (case-sensitive, unstemmed); nil until a summary asks
}

var probeTokenizer, _ = text.LookupTokenizer("Acme-2")

func newProbeSet(q *query.Query) *probeSet {
	ps := &probeSet{}
	expr := q.Ranking
	if expr == nil {
		expr = q.Filter
	}
	if expr == nil {
		return ps
	}
	for _, t := range expr.Terms(nil) {
		toks := probeTokenizer.Tokenize(t.Value.Text)
		if len(toks) == 0 {
			continue
		}
		p := probeTerm{
			field:  t.EffectiveField(),
			tag:    t.Value.Resolve(q.DefaultLanguage),
			words:  make([]string, len(toks)),
			weight: t.EffectiveWeight(),
		}
		for i, tok := range toks {
			p.words[i] = tok.Text
		}
		ps.raw = append(ps.raw, p)
	}
	return ps
}

// foldASCII lower-cases A-Z and nothing else: summaries fold case
// bytewise, so a non-ASCII capital stays as it is.
func foldASCII(r rune) rune {
	if 'A' <= r && r <= 'Z' {
		return r + 'a' - 'A'
	}
	return r
}

// forSummary returns the probes in s's vocabulary.
func (ps *probeSet) forSummary(s *meta.ContentSummary) []probeTerm {
	if s.CaseSensitive && !s.Stemming {
		return ps.raw
	}
	slot := 0 // folded only
	if s.CaseSensitive {
		slot = 1 // stemmed only
	} else if s.Stemming {
		slot = 2 // both
	}
	if ps.norm[slot] == nil {
		ps.norm[slot] = make([]probeTerm, len(ps.raw))
		for i, p := range ps.raw {
			words := make([]string, len(p.words))
			for j, w := range p.words {
				if !s.CaseSensitive {
					w = strings.Map(foldASCII, w) // w itself when nothing folds
				}
				if s.Stemming {
					w = text.Stem(w)
				}
				words[j] = w
			}
			p.words = words
			ps.norm[slot][i] = p
		}
	}
	return ps.norm[slot]
}

// rankBy ranks the sources by goodness, which sees each source's summary
// and the query's probes in that summary's vocabulary; a source without
// a summary has goodness 0.
func rankBy(q *query.Query, sources []SourceInfo, goodness func([]probeTerm, *meta.ContentSummary) float64) []Ranked {
	out := make([]Ranked, 0, len(sources))
	ps := newProbeSet(q)
	for _, si := range sources {
		g := 0.0
		if si.Summary != nil {
			g = goodness(ps.forSummary(si.Summary), si.Summary)
		}
		out = append(out, Ranked{ID: si.ID, Goodness: g})
	}
	return sortRanked(out)
}

// dfOf sums the summary document frequency over the probe's words.
func dfOf(s *meta.ContentSummary, p probeTerm) int {
	df := 0
	for _, w := range p.words {
		df += s.DocFreq(p.field, p.tag, w)
	}
	return df
}

func sortRanked(out []Ranked) []Ranked {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Goodness != out[j].Goodness {
			return out[i].Goodness > out[j].Goodness
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// VSum is the vGlOSS Sum(0) estimator: goodness is the total document-
// frequency mass of the query terms, assuming query terms occur in
// disjoint document sets. It overestimates but preserves ranking well.
type VSum struct{}

// Name implements Selector.
func (VSum) Name() string { return "vGlOSS-Sum(0)" }

// Rank implements Selector.
func (VSum) Rank(q *query.Query, sources []SourceInfo) []Ranked {
	return rankBy(q, sources, func(ps []probeTerm, s *meta.ContentSummary) float64 {
		g := 0.0
		for _, p := range ps {
			g += p.weight * float64(dfOf(s, p))
		}
		return g
	})
}

// VMax is the vGlOSS Max(0) estimator: goodness is the largest single-term
// document frequency, assuming query terms co-occur maximally. It
// underestimates total mass but is robust for conjunctive-looking queries.
type VMax struct{}

// Name implements Selector.
func (VMax) Name() string { return "vGlOSS-Max(0)" }

// Rank implements Selector.
func (VMax) Rank(q *query.Query, sources []SourceInfo) []Ranked {
	return rankBy(q, sources, func(ps []probeTerm, s *meta.ContentSummary) float64 {
		g := 0.0
		for _, p := range ps {
			if df := p.weight * float64(dfOf(s, p)); df > g {
				g = df
			}
		}
		return g
	})
}

// BGloss is the bGlOSS estimator for Boolean conjunctive queries: the
// expected answer size under term-independence, |DB|·Π(df_i/|DB|).
type BGloss struct{}

// Name implements Selector.
func (BGloss) Name() string { return "bGlOSS" }

// Rank implements Selector.
func (BGloss) Rank(q *query.Query, sources []SourceInfo) []Ranked {
	return rankBy(q, sources, func(ps []probeTerm, s *meta.ContentSummary) float64 {
		if s.NumDocs <= 0 || len(ps) == 0 {
			return 0
		}
		n := float64(s.NumDocs)
		g := n
		for _, p := range ps {
			g *= float64(dfOf(s, p)) / n
		}
		return g
	})
}

// Random is the no-information baseline: a deterministic pseudo-random
// shuffle seeded per query, so experiments are reproducible.
type Random struct {
	Seed int64
}

// Name implements Selector.
func (Random) Name() string { return "random" }

// Rank implements Selector.
func (r Random) Rank(q *query.Query, sources []SourceInfo) []Ranked {
	out := make([]Ranked, 0, len(sources))
	for _, si := range sources {
		out = append(out, Ranked{ID: si.ID})
	}
	seed := r.Seed
	if q.Ranking != nil {
		for _, c := range q.Ranking.String() {
			seed = seed*31 + int64(c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Oracle ranks sources by externally supplied true merit; it is the upper
// bound the estimators are measured against (Rn of the oracle is 1 by
// construction).
type Oracle struct {
	Merit map[string]float64
}

// Name implements Selector.
func (Oracle) Name() string { return "oracle" }

// Rank implements Selector.
func (o Oracle) Rank(_ *query.Query, sources []SourceInfo) []Ranked {
	out := make([]Ranked, 0, len(sources))
	for _, si := range sources {
		out = append(out, Ranked{ID: si.ID, Goodness: o.Merit[si.ID]})
	}
	return sortRanked(out)
}
