// Package merge implements rank merging — the third metasearch task.
// Sources rank with secret, mutually incompatible algorithms (Section
// 3.2), so a metasearcher cannot compare raw scores. The strategies here
// span the design space the paper discusses: naive raw-score merging (the
// known-broken baseline), score normalization via the exported ScoreRange,
// round-robin interleaving, and recomputing scores from the TermStats
// that STARTS requires sources to return (Example 9's approach).
// Calibrating black-box rankers from their sample-database results is
// measured in the paper tests (X8), not offered here.
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

// Item is one scored occurrence of a document: what a strategy's scorer
// makes of one source's answer, and the record both the batch fuse and
// the Incremental merger rank.
type Item struct {
	Doc   *result.Document
	Score float64
	Key   OrderKey
}

// OrderKey places an occurrence in the merge, lexicographically (Major,
// Minor), from its roster slot and its position in its source's answer
// only: keys of distinct occurrences differ, and a batch merge over the
// answering sources (the roster's, in roster order) orders them as an
// incremental merge over the whole roster does. 32-bit fields keep an
// Item three words.
type OrderKey struct {
	Major, Minor int32
}

func (k OrderKey) compare(o OrderKey) int {
	if c := cmp.Compare(k.Major, o.Major); c != 0 {
		return c
	}
	return cmp.Compare(k.Minor, o.Minor)
}

// slotKey is the key of the pos-th document of slot's answer for the
// strategies that keep each source's answer together.
func slotKey(slot, pos int) OrderKey { return OrderKey{int32(slot), int32(pos)} }

// rank is the merged order: score descending, then key ascending. Keys
// are unique, so the order is total and heap selection and sorting agree.
func rank(a, b *Item) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return a.Key.compare(b.Key)
}

func byKey(a, b Item) int { return a.Key.compare(b.Key) }

// mergeAll is every strategy's batch merge: the strategy's one scorer
// turns each input, in roster order, into scored occurrences, and fuse
// ranks them.
func mergeAll(q *query.Query, inputs []SourceResult, score func(dst []Item, slot int, r *result.Results) []Item) []*result.Document {
	n := 0
	for _, in := range inputs {
		n += len(in.Results.Documents)
	}
	items := make([]Item, 0, n)
	for slot, in := range inputs {
		items = score(items, slot, in.Results)
	}
	return fuse(items, fuseLimit(q))
}

// rosterOf is the roster a batch merge's scorer reads: its inputs without
// their answers.
func rosterOf(inputs []SourceResult) []StreamSource {
	roster := make([]StreamSource, len(inputs))
	for i, in := range inputs {
		roster[i] = StreamSource{SourceID: in.SourceID, Meta: in.Meta, Summary: in.Summary}
	}
	return roster
}

// fuse collapses duplicates by linkage and ranks the documents by rank: a
// document keeps its first occurrence in key order, scores the best of
// its occurrences (taking that copy's statistics) and accumulates every
// occurrence's source attributions. It works in items, which it owns.
// A positive limit caps the rank: duplicates are still collapsed over the
// full input (a late occurrence may raise an early document's score), but
// only the best limit documents are ordered and returned — bounded-heap
// selection instead of a full sort. limit <= 0 returns the complete rank.
func fuse(items []Item, limit int) []*result.Document {
	if !slices.IsSortedFunc(items, byKey) { // round-robin's (position, slot) keys
		slices.SortFunc(items, byKey)
	}
	byURL := make(map[string]*Item, len(items))
	keep := make([]*Item, 0, len(items))
	for i := range items {
		it := &items[i]
		url := it.Doc.Linkage()
		if prev, ok := byURL[url]; ok {
			prev.Doc.Sources = appendMissing(prev.Doc.Sources, it.Doc.Sources)
			if it.Score > prev.Score {
				prev.Score = it.Score
				prev.Doc.RawScore, prev.Doc.TermStats = it.Doc.RawScore, it.Doc.TermStats
				prev.Doc.Size, prev.Doc.Count = it.Doc.Size, it.Doc.Count // tf is over this length
			}
			continue
		}
		byURL[url] = it
		keep = append(keep, it)
	}
	if limit > 0 && len(keep) > limit {
		h := topk.New(limit, rank)
		for _, it := range keep {
			h.Push(it)
		}
		keep = h.Sorted()
	} else {
		slices.SortFunc(keep, rank)
	}
	out := make([]*result.Document, len(keep))
	for i, it := range keep {
		out[i] = it.Doc
	}
	return out
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
			if !slices.Contains(dst, s) {
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
	return mergeAll(q, inputs, rawFeeder{}.Score)
}

// Feeder implements Streamable: raw scores are arrival-final by
// definition; a pending source is bounded by its exported ScoreRange
// when it declares a finite, sane one, and unbounded (never early)
// otherwise.
func (RawScore) Feeder(q *query.Query, roster []StreamSource) Feeder {
	return rawFeeder{roster: roster}
}

type rawFeeder struct{ roster []StreamSource }

func (rawFeeder) Score(dst []Item, slot int, r *result.Results) []Item {
	for i, d := range r.Documents {
		dst = append(dst, Item{Doc: d, Score: d.RawScore, Key: slotKey(slot, i)})
	}
	return dst
}

func (f rawFeeder) Pending(slot int) Bound {
	hi := math.Inf(1)
	if m := f.roster[slot].Meta; m != nil && !math.IsInf(m.ScoreMax, 1) && m.ScoreMax > m.ScoreMin {
		hi = m.ScoreMax
	}
	return Bound{MaxScore: hi, MinKey: slotKey(slot, 0)}
}

// Scaled normalizes each source's scores onto [0,1] using the ScoreRange
// the source exports in its metadata, falling back to the observed maximum
// for unbounded ranges.
type Scaled struct{}

// Name implements Strategy.
func (Scaled) Name() string { return "scaled-score" }

// Merge implements Strategy.
func (Scaled) Merge(q *query.Query, inputs []SourceResult) []*result.Document {
	return mergeAll(q, inputs, scaledFeeder{rosterOf(inputs)}.Score)
}

// Feeder implements Streamable: each source is normalized from its own
// metadata (or its own observed maximum), so scaled scores are
// arrival-final and a pending source can deliver at most 1. This trusts
// sources to honor their declared ScoreRange — a source scoring above
// its exported maximum could invalidate an already-emitted prefix
// (the final answer is unaffected either way).
func (Scaled) Feeder(q *query.Query, roster []StreamSource) Feeder {
	return scaledFeeder{roster: roster}
}

type scaledFeeder struct{ roster []StreamSource }

func (f scaledFeeder) Score(dst []Item, slot int, r *result.Results) []Item {
	lo, hi := 0.0, 0.0
	m := f.roster[slot].Meta
	if m != nil {
		lo, hi = m.ScoreMin, m.ScoreMax
	}
	if m == nil || math.IsInf(hi, 1) || hi <= lo {
		lo, hi = 0, 0
		for _, d := range r.Documents {
			if d.RawScore > hi {
				hi = d.RawScore
			}
		}
	}
	span := hi - lo
	for i, d := range r.Documents {
		s := 0.0
		if span > 0 {
			s = (d.RawScore - lo) / span
		}
		dst = append(dst, Item{Doc: d, Score: s, Key: slotKey(slot, i)})
	}
	return dst
}

func (scaledFeeder) Pending(slot int) Bound {
	return Bound{MaxScore: 1, MinKey: slotKey(slot, 0)}
}

// RoundRobin interleaves the per-source ranks position by position,
// trusting each source's ordering but nothing about its scores.
type RoundRobin struct{}

// Name implements Strategy.
func (RoundRobin) Name() string { return "round-robin" }

// Merge implements Strategy.
func (RoundRobin) Merge(q *query.Query, inputs []SourceResult) []*result.Document {
	return mergeAll(q, inputs, rrFeeder{}.Score)
}

// Feeder implements Streamable: interleave position is arrival-final and
// score-free, so round-robin streams eagerly — a fast source's top
// documents emit as soon as every earlier roster slot has resolved,
// regardless of how slow the rest are.
func (RoundRobin) Feeder(q *query.Query, roster []StreamSource) Feeder {
	return rrFeeder{}
}

type rrFeeder struct{}

// Score gives the document at position pos the score -pos and the key
// (pos, slot): ties on position break by roster slot, so the rank is the
// position-major interleave.
func (rrFeeder) Score(dst []Item, slot int, r *result.Results) []Item {
	for pos, d := range r.Documents {
		dst = append(dst, Item{Doc: d, Score: -float64(pos), Key: OrderKey{int32(pos), int32(slot)}})
	}
	return dst
}

func (rrFeeder) Pending(slot int) Bound {
	return Bound{MaxScore: 0, MinKey: OrderKey{0, int32(slot)}}
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

// Merge implements Strategy. The collection statistics are read off the
// inputs, so a score is final only once every source has answered:
// TermStats has no Feeder.
func (t TermStats) Merge(q *query.Query, inputs []SourceResult) []*result.Document {
	s := termScorer{local: t.LocalIDF, tt: collectionStats(q, inputs)}
	if t.LocalIDF {
		s.roster = rosterOf(inputs)
	}
	return mergeAll(q, inputs, s.Score)
}

// collectionStats reads one merge's collection statistics off its inputs:
// the combined collection's size and, per term, the global df — the sum
// over sources of the largest df each reported.
func collectionStats(q *query.Query, inputs []SourceResult) *termTable {
	tt := newTermTable(q)
	for _, in := range inputs {
		if in.Summary != nil {
			tt.docs += in.Summary.NumDocs
		} else {
			tt.docs += len(in.Results.Documents)
		}
		for _, d := range in.Results.Documents {
			for _, s := range d.TermStats {
				e := &tt.terms[tt.slot(*s.Term)]
				e.sourceDF = max(e.sourceDF, s.DocFreq)
			}
		}
		for i := range tt.terms {
			e := &tt.terms[i]
			e.df, e.sourceDF = e.df+e.sourceDF, 0
		}
	}
	return tt
}

// termScorer scores documents over one merge's collection statistics:
// tf·idf summed over the document's reported terms, weighted by the
// query, divided by the square root of the document's length. Under
// LocalIDF, N and df are the document's own source's.
type termScorer struct {
	local  bool
	tt     *termTable
	roster []StreamSource // read under LocalIDF only
}

func (s termScorer) Score(dst []Item, slot int, r *result.Results) []Item {
	n := s.tt.docs
	if s.local {
		n = 0
		if sum := s.roster[slot].Summary; sum != nil {
			n = sum.NumDocs
		}
		if n == 0 {
			n = len(r.Documents)
		}
	}
	for i, d := range r.Documents {
		score := 0.0
		for _, st := range d.TermStats {
			if st.Freq == 0 {
				continue
			}
			e := &s.tt.terms[s.tt.slot(*st.Term)]
			df := e.df
			if s.local {
				df = st.DocFreq
			}
			if df == 0 {
				continue
			}
			w := (1 + math.Log(float64(st.Freq))) * math.Log(1+float64(n)/float64(df))
			score += e.weight * w
		}
		if d.Count > 1 {
			score /= math.Sqrt(float64(d.Count))
		}
		dst = append(dst, Item{Doc: d, Score: score, Key: slotKey(slot, i)})
	}
	return dst
}

// termTable numbers one merge's terms — the query's, then any a source
// reports beyond them — so that per-term statistics live in one slice. Two
// spellings are one term when their fields agree and their texts agree
// after lower-casing: what the sources of one merge report for one query
// term, whatever case each folds to.
type termTable struct {
	slots map[termID]int
	terms []termEntry
	docs  int // N: documents in the combined collection
}

type termEntry struct {
	weight   float64 // the query's ranking weight; 1 for a term it lacks
	df       int     // global document frequency
	sourceDF int     // the largest df the source being read has reported
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
		terms := expr.Terms(nil)
		tt.terms = make([]termEntry, 0, len(terms))
		for _, t := range terms {
			n := tt.slot(t) // may grow tt.terms: resolve before indexing
			tt.terms[n].weight = t.EffectiveWeight()
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
		n = len(tt.terms)
		tt.terms = append(tt.terms, termEntry{weight: 1})
		tt.slots[folded] = n
	}
	tt.slots[id] = n
	return n
}
