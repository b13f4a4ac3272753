package gloss

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/text"
)

// Per-source probing as the selectors did it — the query tokenized,
// folded and stemmed again for every source, the tokenizer looked up per
// term — kept as the oracle of probeSet.

func oracleProbes(q *query.Query, s *meta.ContentSummary) []probeTerm {
	expr := q.Ranking
	if expr == nil {
		expr = q.Filter
	}
	if expr == nil {
		return nil
	}
	var out []probeTerm
	for _, t := range expr.Terms(nil) {
		p := probeTerm{
			field:  t.EffectiveField(),
			tag:    t.Value.Resolve(q.DefaultLanguage),
			weight: t.EffectiveWeight(),
		}
		tok, _ := text.LookupTokenizer("Acme-2")
		for _, raw := range tok.Tokenize(nil, t.Value.Text) {
			w := raw.Text
			if !s.CaseSensitive {
				b := []byte(w)
				for i, c := range b {
					if c >= 'A' && c <= 'Z' {
						b[i] = c + 'a' - 'A'
					}
				}
				w = string(b)
			}
			if s.Stemming {
				w = text.Stem(w)
			}
			p.words = append(p.words, w)
		}
		if len(p.words) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// oracleRank ranks with per-source probes; goodness is the selector's own
// arithmetic, as its Rank method spelled it out.
func oracleRank(q *query.Query, sources []SourceInfo, goodness func(*meta.ContentSummary, []probeTerm) float64) []Ranked {
	out := make([]Ranked, 0, len(sources))
	for _, si := range sources {
		g := 0.0
		if si.Summary != nil {
			g = goodness(si.Summary, oracleProbes(q, si.Summary))
		}
		out = append(out, Ranked{ID: si.ID, Goodness: g})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Goodness != out[j].Goodness {
			return out[i].Goodness > out[j].Goodness
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func oracleVSum(s *meta.ContentSummary, ps []probeTerm) float64 {
	g := 0.0
	for _, p := range ps {
		g += p.weight * float64(dfOf(s, p))
	}
	return g
}

func oracleVMax(s *meta.ContentSummary, ps []probeTerm) float64 {
	g := 0.0
	for _, p := range ps {
		if df := p.weight * float64(dfOf(s, p)); df > g {
			g = df
		}
	}
	return g
}

func oracleBGloss(s *meta.ContentSummary, ps []probeTerm) float64 {
	if s.NumDocs <= 0 {
		return 0
	}
	n := float64(s.NumDocs)
	g := n
	if len(ps) == 0 {
		g = 0
	}
	for _, p := range ps {
		g *= float64(dfOf(s, p)) / n
	}
	return g
}

// flagFleet is eight sources over one vocabulary, two per pair of
// (CaseSensitive, Stemming) flags, each listing its words the way its
// flags say — so a probe that was folded or stemmed for the wrong pair
// misses — plus one source without a summary.
func flagFleet() []SourceInfo {
	words := []string{"Databases", "databases", "DISTRIBUTED", "distributed", "Ünïcode", "ünïcode", "running", "Z39", "z39"}
	var out []SourceInfo
	for i := 0; i < 8; i++ {
		s := &meta.ContentSummary{
			CaseSensitive: i&1 != 0, Stemming: i&2 != 0,
			StopWordsIncluded: true, FieldsQualified: true, NumDocs: 100 + 10*i,
		}
		g := meta.SummaryGroup{Field: attr.FieldBodyOfText}
		seen := map[string]bool{}
		for j, w := range words {
			if !s.CaseSensitive && w != strings.ToLower(w) {
				continue // a folding source lists no capitals: its analyzer lower-cases every word
			}
			if s.Stemming {
				w = text.Stem(w)
			}
			if !seen[w] {
				seen[w] = true
				g.Terms = append(g.Terms, meta.TermInfo{Term: w, Postings: 7 * (i + j + 1), DocFreq: 3*(i+1) + j})
			}
		}
		s.Groups = []meta.SummaryGroup{g}
		s.SortTerms()
		out = append(out, SourceInfo{ID: fmt.Sprintf("s%d", i), Summary: s})
	}
	return append(out, SourceInfo{ID: "unharvested"})
}

// TestRankMatchesPerSourceProbing holds the three summary-only selectors
// to per-source probing, over a fleet mixing all four flag pairs and
// queries with capitals, a non-ASCII term, several words in one term,
// weights, a term that tokenizes to nothing, and a filter-only query.
func TestRankMatchesPerSourceProbing(t *testing.T) {
	fleet := flagFleet()
	rankings := []string{
		`list((body-of-text "Databases") (body-of-text "DISTRIBUTED" 0.3))`,
		`list((body-of-text "Ünïcode") (body-of-text "running databases Z39" 0.9))`,
		`list((body-of-text "ünïcode") ("distributed") (body-of-text "..."))`,
		`list((title "databases") (body-of-text "absent"))`,
	}
	var queries []*query.Query
	for _, r := range rankings {
		queries = append(queries, rankQuery(t, r))
	}
	filterOnly := query.New()
	filterOnly.Filter, _ = query.ParseFilter(`((body-of-text "Running") and (body-of-text "Databases"))`)
	queries = append(queries, filterOnly, &query.Query{})
	for qi, q := range queries {
		for _, c := range []struct {
			sel      Selector
			goodness func(*meta.ContentSummary, []probeTerm) float64
		}{{VSum{}, oracleVSum}, {VMax{}, oracleVMax}, {BGloss{}, oracleBGloss}} {
			got, want := c.sel.Rank(q, fleet), oracleRank(q, fleet, c.goodness)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("query %d, %s:\n got %v\nwant %v", qi, c.sel.Name(), got, want)
			}
		}
	}
	// The fleet must tell the flag pairs apart, or the test proves nothing.
	ranked := VSum{}.Rank(queries[0], fleet)
	distinct := map[float64]bool{}
	for _, r := range ranked {
		distinct[r.Goodness] = true
	}
	if len(distinct) < 5 {
		t.Errorf("fleet too uniform: goodness values %v", ranked)
	}
}
