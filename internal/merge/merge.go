// Package merge implements rank merging — the third metasearch task.
// Sources rank with secret, mutually incompatible algorithms (Section
// 3.2), so a metasearcher cannot compare raw scores. The strategies here
// span the design space the paper discusses: naive raw-score merging (the
// known-broken baseline), score normalization via the exported ScoreRange,
// round-robin interleaving, recomputing scores from the TermStats that
// STARTS requires sources to return (Example 9's approach), and
// calibrating black-box rankers from their sample-database results.
package merge

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"starts/internal/attr"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/topk"
)

// SourceResult is one source's response plus the harvested context a
// merger may use.
type SourceResult struct {
	SourceID string
	Meta     *meta.SourceMeta
	Summary  *meta.ContentSummary
	Results  *result.Results
}

// Strategy merges per-source results into one document rank.
type Strategy interface {
	Name() string
	// Merge returns the fused rank, best first, with duplicates (by
	// linkage) collapsed.
	Merge(q *query.Query, inputs []SourceResult) []*result.Document
}

// merged is the working record for one fused document.
type merged struct {
	doc   *result.Document
	score float64
	order int // arrival order for stable ties
}

// fuse collapses duplicates by linkage, keeping the best-scoring copy's
// statistics and accumulating source attributions, then ranks by score
// (descending) with arrival order as the tiebreak. It works in items, which it owns.
// A positive limit caps the rank: duplicates are still collapsed over the full input (a late arrival may
// raise an early document's score), but only the best limit documents
// are ordered and returned — bounded-heap selection instead of a full
// sort. limit <= 0 returns the complete rank.
func fuse(items []merged, limit int) []*result.Document {
	byURL := make(map[string]*merged, len(items))
	keep := make([]*merged, 0, len(items))
	for i := range items {
		it := &items[i]
		url := it.doc.Linkage()
		if prev, ok := byURL[url]; ok {
			prev.doc.Sources = appendMissing(prev.doc.Sources, it.doc.Sources)
			if it.score > prev.score {
				prev.score = it.score
				prev.doc.RawScore, prev.doc.TermStats = it.doc.RawScore, it.doc.TermStats
				prev.doc.Size, prev.doc.Count = it.doc.Size, it.doc.Count // tf is over this length
			}
			continue
		}
		byURL[url] = it
		keep = append(keep, it)
	}
	// Arrival order is unique, so the tiebreak makes the order total:
	// heap selection and sorting agree exactly.
	compare := func(a, b *merged) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		return a.order - b.order
	}
	if limit > 0 && len(keep) > limit {
		h := topk.New(limit, compare)
		for _, it := range keep {
			h.Push(it)
		}
		keep = h.Sorted()
	} else {
		slices.SortFunc(keep, compare)
	}
	out := make([]*result.Document, len(keep))
	for i, it := range keep {
		out[i] = it.doc
	}
	return out
}

// newItems sizes a merge's working records: one per returned document.
func newItems(inputs []SourceResult) []merged {
	n := 0
	for _, in := range inputs {
		n += len(in.Results.Documents)
	}
	return make([]merged, 0, n)
}

// fuseLimit is the rank depth a merge needs to produce: the query's
// max-docs answer cap (callers truncate there anyway), unbounded when
// no query context is available.
func fuseLimit(q *query.Query) int {
	if q == nil {
		return 0
	}
	return q.EffectiveMaxResults()
}

// appendMissingSetThreshold is the attribution count above which
// appendMissing switches from the quadratic scan — cheapest for the
// tiny source lists of normal merges — to a seen-set.
const appendMissingSetThreshold = 16

func appendMissing(dst []string, add []string) []string {
	if len(dst)+len(add) <= appendMissingSetThreshold {
		for _, s := range add {
			found := false
			for _, have := range dst {
				if have == s {
					found = true
					break
				}
			}
			if !found {
				dst = append(dst, s)
			}
		}
		return dst
	}
	seen := make(map[string]bool, len(dst)+len(add))
	for _, have := range dst {
		seen[have] = true
	}
	for _, s := range add {
		if !seen[s] {
			seen[s] = true
			dst = append(dst, s)
		}
	}
	return dst
}

// RawScore is the naive baseline: compare raw scores across sources as if
// they were commensurable. The paper's Section 3.2 explains why this is
// wrong; experiment X3 measures how wrong.
type RawScore struct{}

// Name implements Strategy.
func (RawScore) Name() string { return "raw-score" }

// Merge implements Strategy.
func (RawScore) Merge(q *query.Query, inputs []SourceResult) []*result.Document {
	items := newItems(inputs)
	for _, in := range inputs {
		for _, d := range in.Results.Documents {
			items = append(items, merged{doc: d, score: d.RawScore, order: len(items)})
		}
	}
	return fuse(items, fuseLimit(q))
}

// Scaled normalizes each source's scores onto [0,1] using the ScoreRange
// the source exports in its metadata, falling back to the observed maximum
// for unbounded ranges.
type Scaled struct{}

// Name implements Strategy.
func (Scaled) Name() string { return "scaled-score" }

// Merge implements Strategy.
func (Scaled) Merge(q *query.Query, inputs []SourceResult) []*result.Document {
	items := newItems(inputs)
	for _, in := range inputs {
		lo, hi := 0.0, 0.0
		if in.Meta != nil {
			lo, hi = in.Meta.ScoreMin, in.Meta.ScoreMax
		}
		if in.Meta == nil || math.IsInf(hi, 1) || hi <= lo {
			lo = 0
			hi = 0
			for _, d := range in.Results.Documents {
				if d.RawScore > hi {
					hi = d.RawScore
				}
			}
		}
		span := hi - lo
		for _, d := range in.Results.Documents {
			s := 0.0
			if span > 0 {
				s = (d.RawScore - lo) / span
			}
			items = append(items, merged{doc: d, score: s, order: len(items)})
		}
	}
	return fuse(items, fuseLimit(q))
}

// RoundRobin interleaves the per-source ranks position by position,
// trusting each source's ordering but nothing about its scores.
type RoundRobin struct{}

// Name implements Strategy.
func (RoundRobin) Name() string { return "round-robin" }

// Merge implements Strategy.
func (RoundRobin) Merge(q *query.Query, inputs []SourceResult) []*result.Document {
	items := newItems(inputs)
	maxLen := 0
	for _, in := range inputs {
		if len(in.Results.Documents) > maxLen {
			maxLen = len(in.Results.Documents)
		}
	}
	for pos := 0; pos < maxLen; pos++ {
		for _, in := range inputs {
			if pos < len(in.Results.Documents) {
				d := in.Results.Documents[pos]
				// Score encodes the interleave position so fuse sorts it.
				items = append(items, merged{doc: d, score: -float64(pos), order: len(items)})
			}
		}
	}
	return fuse(items, fuseLimit(q))
}

// TermStats recomputes a global score for every document from the term
// statistics STARTS requires in query results — term frequency and
// per-source document frequency — ranking all documents as if they lived
// in one combined collection (the approach of the paper's Example 9).
type TermStats struct {
	// LocalIDF, when set, uses each source's own document frequencies
	// instead of globally aggregated ones — the ablation knob of
	// experiment X3.
	LocalIDF bool
}

// Name implements Strategy.
func (t TermStats) Name() string {
	if t.LocalIDF {
		return "term-stats-local-idf"
	}
	return "term-stats"
}

// Merge implements Strategy.
func (t TermStats) Merge(q *query.Query, inputs []SourceResult) []*result.Document {
	// Aggregate collection statistics: total documents and, per term, the
	// global df — the sum over sources of the largest df each reported.
	tt := newTermTable(q)
	totalDocs := 0
	for _, in := range inputs {
		if in.Summary != nil {
			totalDocs += in.Summary.NumDocs
		} else {
			totalDocs += len(in.Results.Documents)
		}
		for _, d := range in.Results.Documents {
			for _, s := range d.TermStats {
				n := tt.slot(s.Term)
				tt.sourceDF[n] = max(tt.sourceDF[n], s.DocFreq)
			}
		}
		for n, df := range tt.sourceDF {
			tt.df[n] += df
			tt.sourceDF[n] = 0
		}
	}

	items := newItems(inputs)
	for _, in := range inputs {
		localN := 0
		if in.Summary != nil {
			localN = in.Summary.NumDocs
		}
		for _, d := range in.Results.Documents {
			score := 0.0
			for _, s := range d.TermStats {
				if s.Freq == 0 {
					continue
				}
				slot := tt.slot(s.Term)
				n, df := totalDocs, tt.df[slot]
				if t.LocalIDF {
					n, df = localN, s.DocFreq
					if n == 0 {
						n = len(in.Results.Documents)
					}
				}
				if df == 0 {
					continue
				}
				w := (1 + math.Log(float64(s.Freq))) * math.Log(1+float64(n)/float64(df))
				score += tt.weight[slot] * w
			}
			if d.Count > 1 {
				score /= math.Sqrt(float64(d.Count))
			}
			items = append(items, merged{doc: d, score: score, order: len(items)})
		}
	}
	return fuse(items, fuseLimit(q))
}

// termTable numbers one merge's terms — the query's, then any a source
// reports beyond them — so that per-term statistics live in slices. Two
// spellings are one term when their fields agree and their texts agree
// after lower-casing: what the sources of one merge report for one query
// term, whatever case each folds to.
type termTable struct {
	slots    map[termID]int
	weight   []float64 // the query's ranking weight; 1 for a term it lacks
	df       []int     // global document frequency
	sourceDF []int     // the largest df the source being read has reported
}

// termID is a term as spelled; the table also files each spelling's
// lower-cased form, so a lookup by spelling never builds a string.
type termID struct {
	field attr.Field
	text  string
}

func newTermTable(q *query.Query) *termTable {
	tt := &termTable{slots: make(map[termID]int, 8)}
	expr := q.Ranking
	if expr == nil {
		expr = q.Filter
	}
	if expr != nil {
		for _, t := range expr.Terms(nil) {
			n := tt.slot(t) // may grow tt.weight: resolve before indexing
			tt.weight[n] = t.EffectiveWeight()
		}
	}
	return tt
}

// slot returns t's number, assigning the next one to a term not met before.
func (tt *termTable) slot(t query.Term) int {
	id := termID{t.EffectiveField(), t.Value.Text}
	if n, ok := tt.slots[id]; ok {
		return n
	}
	folded := termID{id.field, strings.ToLower(id.text)}
	n, ok := tt.slots[folded]
	if !ok {
		n = len(tt.df)
		tt.df, tt.sourceDF, tt.weight = append(tt.df, 0), append(tt.sourceDF, 0), append(tt.weight, 1)
		tt.slots[folded] = n
	}
	tt.slots[id] = n
	return n
}
