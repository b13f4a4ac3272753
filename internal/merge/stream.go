package merge

import (
	"slices"

	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
)

// This file implements incremental rank-merging: ingest per-source
// result sets as they arrive and emit documents whose merged rank can no
// longer change, without waiting for the slowest source.
//
// The batch fuse and the Incremental merger share what decides a rank:
// one scorer per strategy (a Feeder's Score is its batch scoring too),
// one record (Item) and one comparator (rank). A document's score is the
// max over its occurrences (promotion is strictly greater-than) and its
// key is its smallest occurrence key, which OrderKey keeps independent of
// which sources fail.
//
// A settled candidate E — the best (score desc, key asc) document merged
// so far — may be emitted iff for every still-pending source p:
//
//	MaxScore(p) <= Score(E)  and  MinKey(p) > Key(E)
//
// The score clause may admit equality because fuse promotes only on
// strictly greater scores: a pending duplicate scoring exactly Score(E)
// cannot displace E's score. The key clause does double duty: a pending
// document tying E's score must lose the key tiebreak, and a pending
// duplicate of E itself must not lower E's key.
//
// One more hazard survives those two clauses: when some pending p has
// MaxScore(p) exactly equal to Score(E), a duplicate from p can promote
// an already-merged document F — one with a lower score but a smaller
// key than E — into an exact tie, and F would then win the key
// tiebreak. So with an equal-score pending bound, E is stable only if no
// unemitted document carries a smaller key. (New documents from p are
// harmless either way: their keys sit above MinKey(p) and so above
// Key(E).) Under these bounds nothing a pending source can deliver
// outranks or mutates E's rank entry, so E's final position is fixed.
//
// The incremental merger mutates no document: Finish runs the ordinary
// batch Merge, which promotes scores and completes attributions exactly
// as a non-streamed search would, and the emitted prefix aliases the
// pointers it returns, so it picks them up in place.

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
	// Score appends one arrived source's results to dst as scored
	// items, in ascending key order. It is the strategy's batch
	// scoring too.
	Score(dst []Item, slot int, r *result.Results) []Item
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
	byURL   map[string]*Item
	live    []*Item // collapsed, not yet emitted
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
		byURL:    map[string]*Item{},
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
	// Each offer scores into its own slice, which the records keep
	// pointing into.
	items := inc.feeder.Score(make([]Item, 0, len(r.Documents)), slot, r)
	for i := range items {
		it := &items[i]
		url := it.Doc.Linkage()
		if prev, ok := inc.byURL[url]; ok {
			// Collapse a duplicate: max score, min key. For an
			// already-emitted document the emission rule guarantees
			// both updates are no-ops (assuming honest score ranges).
			if it.Score > prev.Score {
				prev.Score = it.Score
			}
			if it.Key.compare(prev.Key) < 0 {
				prev.Key, prev.Doc = it.Key, it.Doc
			}
			continue
		}
		inc.byURL[url] = it
		inc.live = append(inc.live, it)
	}
	return inc.drain()
}

// drain emits every live document whose rank is now certain.
func (inc *Incremental) drain() []*result.Document {
	if inc.feeder == nil || len(inc.live) == 0 {
		return nil
	}
	slices.SortFunc(inc.live, rank)
	n := 0
	for n < len(inc.live) && (inc.limit <= 0 || inc.emitted+n < inc.limit) && inc.stable(inc.live[n], n) {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]*result.Document, n)
	for i, e := range inc.live[:n] {
		out[i] = e.Doc
	}
	inc.emitted += n
	inc.live = inc.live[n:]
	return out
}

// stable reports whether no pending source can change e's rank. from is
// e's position in live: everything before it was emitted this drain.
func (inc *Incremental) stable(e *Item, from int) bool {
	for slot := range inc.pending {
		b := inc.feeder.Pending(slot)
		if !(b.MaxScore <= e.Score && e.Key.compare(b.MinKey) < 0) {
			return false
		}
		if b.MaxScore == e.Score {
			// A duplicate from this slot could promote an earlier-keyed
			// unemitted document into an exact tie that outranks e.
			for _, f := range inc.live[from:] {
				if f != e && f.Key.compare(e.Key) < 0 {
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
			inputs = append(inputs, SourceResult{SourceID: src.SourceID, Meta: src.Meta, Summary: src.Summary, Results: r})
		}
	}
	if len(inputs) == 0 {
		return nil
	}
	return inc.strategy.Merge(inc.q, inputs)
}
