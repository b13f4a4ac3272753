package merge

import (
	"math"
	"sort"

	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
)

// This file implements incremental rank-merging: ingest per-source
// result sets as they arrive and emit documents whose merged rank can no
// longer change, without waiting for the slowest source.
//
// The correctness argument hangs on two facts about fuse:
//
//  1. fuse ranks by (score descending, arrival order ascending), where a
//     document's score is the max over its duplicate occurrences
//     (promotion is strictly greater-than) and its arrival order is its
//     first — smallest — occurrence position.
//  2. Arrival positions are assigned per strategy in a fixed pattern
//     over (roster slot, per-source document position), so each
//     occurrence can be given a sparse OrderKey that is order-isomorphic
//     to the dense position fuse would assign, even before we know which
//     sources will fail and drop out of the input list.
//
// A settled candidate E — the best (score desc, key asc) document merged
// so far — may be emitted iff for every still-pending source p:
//
//	MaxScore(p) <= Score(E)  and  MinKey(p) > Key(E)
//
// The score clause may admit equality because fuse promotes only on
// strictly greater scores: a pending duplicate scoring exactly Score(E)
// cannot displace E's score. The key clause does double duty: a pending
// document tying E's score must lose the order tiebreak, and a pending
// duplicate of E itself must not shrink E's first-occurrence position.
//
// One more hazard survives those two clauses: when some pending p has
// MaxScore(p) exactly equal to Score(E), a duplicate from p can promote
// an already-merged document F — one with a lower score but a smaller
// first-occurrence key than E — into an exact tie, and F would then win
// the order tiebreak. So with an equal-score pending bound, E is stable
// only if no unemitted document carries a smaller key. (New documents
// from p are harmless either way: their keys sit above MinKey(p) and so
// above Key(E).) Under these bounds nothing a pending source can deliver
// outranks or mutates E's rank entry, so E's final position is fixed.
//
// The incremental merger never mutates documents (no Sources
// accumulation, no score promotion writes): the stream end runs the
// ordinary batch Merge over the full inputs, which performs every
// mutation exactly as a non-streamed search would — the streamed prefix
// aliases the same *result.Document pointers the final answer returns,
// so final answers are bit-identical to batch and emitted documents pick
// up their completed attributions in place.

// OrderKey is a sparse stand-in for fuse's dense arrival position:
// lexicographic (Major, Minor). Keys from distinct occurrences are
// distinct, and comparing keys agrees with comparing the dense positions
// fuse assigns — for every subset of surviving sources, which is what
// makes the scheme robust to source failures mid-stream.
type OrderKey struct {
	Major, Minor int
}

// Less reports lexicographic order.
func (k OrderKey) Less(o OrderKey) bool {
	if k.Major != o.Major {
		return k.Major < o.Major
	}
	return k.Minor < o.Minor
}

// Item is one scored occurrence of a document in the stream.
type Item struct {
	Doc   *result.Document
	Score float64
	Key   OrderKey
}

// Bound caps what a still-pending source can contribute: no occurrence
// it delivers will score above MaxScore or carry a key below MinKey.
type Bound struct {
	MaxScore float64
	MinKey   OrderKey
}

// StreamSource is one roster slot of an incremental merge: the source's
// identity plus the harvested context the strategy will see again at
// stream end. Meta and Summary must be the same values the final batch
// Merge inputs will carry, or streamed and final scores may disagree.
type StreamSource struct {
	SourceID string
	Meta     *meta.SourceMeta
	Summary  *meta.ContentSummary
}

// Feeder scores one merge's arrivals incrementally. Implementations must
// be arrival-final: an occurrence's Score and Key depend only on its own
// source's results and roster slot, never on other sources' data (a
// strategy whose scores drift as more sources report — global IDF, say —
// cannot feed a stream and simply has no Feeder).
type Feeder interface {
	// Score converts one arrived source's results into scored items,
	// in ascending key order, replicating exactly the scores the
	// strategy's batch Merge would assign.
	Score(slot int, r *result.Results) []Item
	// Pending bounds what the slot could still deliver.
	Pending(slot int) Bound
}

// Streamable is the optional Strategy extension enabling early emission.
// Strategies without it still work with Incremental — every document
// just waits for stream end.
type Streamable interface {
	Strategy
	Feeder(q *query.Query, roster []StreamSource) Feeder
}

// streamDoc is the working record for one collapsed document: max score
// and min key over the occurrences integrated so far.
type streamDoc struct {
	doc   *result.Document
	score float64
	key   OrderKey
}

// Incremental merges per-source results as they arrive, emitting stable
// rank prefixes. It is not safe for concurrent use; callers serialize
// Offer/Fail/Finish externally.
type Incremental struct {
	strategy Strategy
	q        *query.Query
	roster   []StreamSource
	feeder   Feeder // nil when strategy is not Streamable
	limit    int    // emission cap; 0 is unbounded

	pending map[int]bool
	arrived []*result.Results
	byURL   map[string]*streamDoc
	live    []*streamDoc // collapsed, not yet emitted
	emitted int
}

// NewIncremental starts an incremental merge over the given roster. The
// roster order must match the order the final batch inputs will be
// assembled in (failed sources simply skipped).
func NewIncremental(s Strategy, q *query.Query, roster []StreamSource) *Incremental {
	inc := &Incremental{
		strategy: s,
		q:        q,
		roster:   roster,
		limit:    fuseLimit(q),
		pending:  make(map[int]bool, len(roster)),
		arrived:  make([]*result.Results, len(roster)),
		byURL:    map[string]*streamDoc{},
	}
	for i := range roster {
		inc.pending[i] = true
	}
	if st, ok := s.(Streamable); ok {
		inc.feeder = st.Feeder(q, roster)
	}
	return inc
}

// Offer ingests one source's results and returns the documents whose
// final rank just became certain, in rank order. Nil results resolve a
// slot that will deliver nothing (a failed source): its bound no longer
// holds anything back. The returned documents alias the input results;
// their Sources and score fields are completed in place by the batch
// Merge at stream end.
func (inc *Incremental) Offer(slot int, r *result.Results) []*result.Document {
	if slot < 0 || slot >= len(inc.roster) || !inc.pending[slot] {
		return nil
	}
	delete(inc.pending, slot)
	inc.arrived[slot] = r
	if inc.feeder == nil || r == nil {
		return inc.drain()
	}
	for _, it := range inc.feeder.Score(slot, r) {
		url := it.Doc.Linkage()
		if prev, ok := inc.byURL[url]; ok {
			// Collapse a duplicate: max score, min key. For an
			// already-emitted document the emission rule guarantees
			// both updates are no-ops (assuming honest score ranges).
			if it.Score > prev.score {
				prev.score = it.Score
			}
			if it.Key.Less(prev.key) {
				prev.key = it.Key
				prev.doc = it.Doc
			}
			continue
		}
		sd := &streamDoc{doc: it.Doc, score: it.Score, key: it.Key}
		inc.byURL[url] = sd
		inc.live = append(inc.live, sd)
	}
	return inc.drain()
}

// drain emits every live document whose rank is now certain.
func (inc *Incremental) drain() []*result.Document {
	if inc.feeder == nil || len(inc.live) == 0 {
		return nil
	}
	sort.Slice(inc.live, func(i, j int) bool {
		a, b := inc.live[i], inc.live[j]
		if a.score != b.score {
			return a.score > b.score
		}
		return a.key.Less(b.key)
	})
	var out []*result.Document
	n := 0
	for n < len(inc.live) {
		if inc.limit > 0 && inc.emitted >= inc.limit {
			break
		}
		e := inc.live[n]
		if !inc.stable(e, n) {
			break
		}
		out = append(out, e.doc)
		inc.emitted++
		n++
	}
	inc.live = inc.live[n:]
	return out
}

// stable reports whether no pending source can change e's rank. from is
// e's position in live: everything before it was emitted this drain.
func (inc *Incremental) stable(e *streamDoc, from int) bool {
	for slot := range inc.pending {
		b := inc.feeder.Pending(slot)
		if !(b.MaxScore <= e.score && e.key.Less(b.MinKey)) {
			return false
		}
		if b.MaxScore == e.score {
			// A duplicate from this slot could promote an earlier-keyed
			// unemitted document into an exact tie that outranks e.
			for _, f := range inc.live[from:] {
				if f != e && f.key.Less(e.key) {
					return false
				}
			}
		}
	}
	return true
}

// Emitted returns how many documents have been emitted so far.
func (inc *Incremental) Emitted() int { return inc.emitted }

// Finish runs the ordinary batch Merge over everything that arrived, in
// roster order, and returns the complete final rank — bit-identical to a
// never-streamed merge of the same inputs. The emitted prefix equals
// Finish()[:Emitted()] pointer for pointer.
func (inc *Incremental) Finish() []*result.Document {
	var inputs []SourceResult
	for slot, src := range inc.roster {
		if r := inc.arrived[slot]; r != nil {
			inputs = append(inputs, SourceResult{
				SourceID: src.SourceID,
				Meta:     src.Meta,
				Summary:  src.Summary,
				Results:  r,
			})
		}
	}
	if len(inputs) == 0 {
		return nil
	}
	return inc.strategy.Merge(inc.q, inputs)
}

// Feeder implements Streamable: raw scores are arrival-final by
// definition; a pending source is bounded by its exported ScoreRange
// when it declares a finite, sane one, and unbounded (never early)
// otherwise.
func (RawScore) Feeder(q *query.Query, roster []StreamSource) Feeder {
	return rawFeeder{roster: roster}
}

type rawFeeder struct{ roster []StreamSource }

func (f rawFeeder) Score(slot int, r *result.Results) []Item {
	items := make([]Item, len(r.Documents))
	for i, d := range r.Documents {
		items[i] = Item{Doc: d, Score: d.RawScore, Key: OrderKey{slot, i}}
	}
	return items
}

func (f rawFeeder) Pending(slot int) Bound {
	hi := math.Inf(1)
	if m := f.roster[slot].Meta; m != nil && !math.IsInf(m.ScoreMax, 1) && m.ScoreMax > m.ScoreMin {
		hi = m.ScoreMax
	}
	return Bound{MaxScore: hi, MinKey: OrderKey{slot, 0}}
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

func (f scaledFeeder) Score(slot int, r *result.Results) []Item {
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
	items := make([]Item, len(r.Documents))
	for i, d := range r.Documents {
		s := 0.0
		if span > 0 {
			s = (d.RawScore - lo) / span
		}
		items[i] = Item{Doc: d, Score: s, Key: OrderKey{slot, i}}
	}
	return items
}

func (f scaledFeeder) Pending(slot int) Bound {
	return Bound{MaxScore: 1, MinKey: OrderKey{slot, 0}}
}

// Feeder implements Streamable: interleave position is arrival-final and
// score-free, so round-robin streams eagerly — a fast source's top
// documents emit as soon as every earlier roster slot has resolved,
// regardless of how slow the rest are. Keys are (position, slot): the
// pos-major order fuse's batch interleave flattens to.
func (RoundRobin) Feeder(q *query.Query, roster []StreamSource) Feeder {
	return rrFeeder{}
}

type rrFeeder struct{}

func (rrFeeder) Score(slot int, r *result.Results) []Item {
	items := make([]Item, len(r.Documents))
	for pos, d := range r.Documents {
		items[pos] = Item{Doc: d, Score: -float64(pos), Key: OrderKey{pos, slot}}
	}
	return items
}

func (rrFeeder) Pending(slot int) Bound {
	return Bound{MaxScore: 0, MinKey: OrderKey{0, slot}}
}
