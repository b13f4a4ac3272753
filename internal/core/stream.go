package core

import (
	"context"
	"time"

	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/query"
	"starts/internal/result"
)

// StreamEvent is one step of a streamed search. Events arrive in rank
// order: Docs are the documents whose final merged position just became
// certain (Rank is the position of the first of them), so concatenating
// every event's Docs reproduces the final answer's Documents exactly.
//
// Per-source events (SourceID set) fire as each contacted source
// completes, whether or not they stabilized new documents, and carry
// that source's Outcome plus a snapshot of the degradation accumulated
// so far. The terminal event has Final set to the complete merged
// answer; its Docs are the remainder the incremental merger could not
// prove stable early. A search served from the query cache produces a
// single terminal event carrying everything at once.
//
// Streamed documents alias the final answer's pointers: duplicate
// attributions (Sources) and promoted scores are completed in place by
// the batch merge at stream end, so an early emission may briefly show a
// partial Sources list that the terminal event's Final answer has
// completed.
type StreamEvent struct {
	// Docs are newly rank-stable documents, best first; may be empty on
	// per-source events that stabilized nothing.
	Docs []*result.Document
	// Rank is the final answer position of Docs[0] (0-based).
	Rank int
	// SourceID names the source whose completion produced this event;
	// empty on the terminal event.
	SourceID string
	// Outcome is the completed source's outcome (per-source events only).
	Outcome *SourceOutcome
	// Degraded is a snapshot of the degradation known so far.
	Degraded Degradation
	// Final is the complete merged answer; set only on the terminal
	// event of a successful stream.
	Final *Answer
}

// StreamSink receives stream events. It is called synchronously from
// the search's completion path — one call at a time, never concurrently
// — so a slow sink back-pressures emission (usually what a streaming
// response wants). Returning an error stops further emission; the
// search itself still runs to completion (and fills the query cache)
// and SearchStream returns the full answer. A sink must not call back
// into the Metasearcher.
type StreamSink func(StreamEvent) error

// SearchStream is Search with incremental delivery: events are emitted
// as merged rank positions become certain — per-source results feed an
// incremental merger at each fan-out completion instead of a barrier —
// and the final answer is returned exactly as Search would have
// returned it, bit-identical to the batch path (the stream end runs the
// ordinary batch merge over the same inputs).
//
// How early documents flow depends on the merge strategy: round-robin
// streams most eagerly, raw-score and scaled-score emit what the
// pending sources' declared ScoreRanges can no longer displace, and
// strategies whose scores depend on the full input set (term-stats,
// calibrated) deliver everything in the terminal event. Either way the
// qcache contract is unchanged: the fully-merged answer is cached at
// stream end, and cache hits, stale serves and coalesced followers
// replay their shared answer as one terminal event.
func (m *Metasearcher) SearchStream(ctx context.Context, q *query.Query, sink StreamSink, sopts ...SearchOption) (*Answer, error) {
	return m.searchStream(ctx, q, sink, sopts...)
}

// emitter is the stream side of one search: it delivers events to the
// sink and records the stream metrics, and for a search that runs its own
// fan-out it feeds each completion to an incremental merger. A nil
// *emitter is valid and inert, so the batch Search path costs one nil
// check. Only the search's own fill streams: the emitter is an argument of
// that fill, which a stale serve's background refresh runs with nil, so
// no refresh ever reaches a sink. fanOut serializes its completions, and
// the terminal event follows the fan-out, so the sink is never called
// concurrently.
type emitter struct {
	sink     StreamSink
	dead     bool // the sink failed
	start    time.Time
	now      func() time.Time
	metrics  *obs.Registry
	gotFirst bool

	// Set by begin; inc stays nil for an answer served from the cache.
	ids      []string
	inc      *merge.Incremental
	degraded Degradation // known so far
}

// begin arms the emitter for p's fan-out — an incremental merger over the
// planned sources' harvests, which the final merge inputs also use, so
// streamed and final scores agree, and the degradation known before any
// source answers — and returns fanOut's completion hook.
func (e *emitter) begin(p *plan, merger merge.Strategy) func(slot int, oc *SourceOutcome) {
	slots := make([]merge.StreamSource, len(p.ids))
	for i, s := range p.sources {
		slots[i] = merge.StreamSource{SourceID: p.ids[i]}
		if s.entry != nil {
			slots[i].Meta, slots[i].Summary = s.entry.meta, s.entry.summary
		}
	}
	e.ids, e.inc, e.degraded = p.ids, merge.NewIncremental(merger, p.q, slots), p.degraded
	return e.done
}

// done runs at each source's completion: its answer feeds the incremental
// merger (a failed source's nil results resolve its slot), and one event
// carries what became rank-stable, the source's outcome and the
// degradation known so far.
func (e *emitter) done(slot int, oc *SourceOutcome) {
	id, rank := e.ids[slot], e.inc.Emitted()
	e.degraded.note(id, oc)
	e.emit(StreamEvent{Docs: e.inc.Offer(slot, oc.Results), Rank: rank, SourceID: id, Outcome: oc, Degraded: e.degraded.snapshot()})
}

// finish emits the terminal event: what the incremental merger did not
// stream of the answer already — all of it for a cache-served answer.
func (e *emitter) finish(ans *Answer) {
	if e == nil {
		return
	}
	rank := 0
	if e.inc != nil {
		rank = min(e.inc.Emitted(), len(ans.Documents))
	}
	e.emit(StreamEvent{Docs: ans.Documents[rank:], Rank: rank, Degraded: ans.Degraded.snapshot(), Final: ans})
}

// emit delivers one event unless the sink already failed.
func (e *emitter) emit(ev StreamEvent) {
	if e.dead {
		return
	}
	if len(ev.Docs) > 0 && !e.gotFirst {
		e.gotFirst = true
		e.metrics.Histogram(obs.MStreamFirstResultSeconds).Observe(e.now().Sub(e.start))
	}
	if ev.Final != nil {
		e.metrics.Histogram(obs.MStreamFinalSeconds).Observe(e.now().Sub(e.start))
	} else if len(ev.Docs) > 0 {
		e.metrics.Counter(obs.MStreamEarlyDocs).Add(int64(len(ev.Docs)))
	}
	if err := e.sink(ev); err != nil {
		e.dead = true
		e.metrics.Counter(obs.MStreamSinkErrors).Inc()
	}
}

// snapshot returns a copy of d whose lists do not alias the answer's
// (which later completions keep appending to).
func (d Degradation) snapshot() Degradation {
	d.Skipped = append([]string(nil), d.Skipped...)
	d.Stale = append([]string(nil), d.Stale...)
	d.Failed = append([]string(nil), d.Failed...)
	d.HarvestFailed = append([]string(nil), d.HarvestFailed...)
	return d
}
