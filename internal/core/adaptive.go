package core

import (
	"sync"
	"time"

	"starts/internal/gloss"
	"starts/internal/query"
)

// SourceStats accumulates a source's observed behavior across queries —
// the "information from past searches" the paper credits SavvySearch with
// using for source selection, and the ground for avoiding sources that
// charge in latency or failures.
type SourceStats struct {
	// Queries is the number of queries sent.
	Queries int
	// Failures is the number of failed or timed-out queries.
	Failures int
	// MeanLatency is an exponentially weighted moving average of response
	// time.
	MeanLatency time.Duration
	// DocsReturned is the total number of documents received.
	DocsReturned int
}

// FailureRate returns the observed failure fraction.
func (s SourceStats) FailureRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Failures) / float64(s.Queries)
}

// statsBook tracks per-source statistics under its own lock.
type statsBook struct {
	mu sync.Mutex
	m  map[string]*SourceStats
}

func newStatsBook() *statsBook { return &statsBook{m: map[string]*SourceStats{}} }

// ewmaAlpha is the smoothing factor of the latency average.
const ewmaAlpha = 0.3

func (b *statsBook) record(id string, elapsed time.Duration, failed bool, docs int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.m[id]
	if s == nil {
		s = &SourceStats{}
		b.m[id] = s
	}
	s.Queries++
	if failed {
		s.Failures++
	}
	s.DocsReturned += docs
	if s.MeanLatency == 0 {
		s.MeanLatency = elapsed
	} else {
		s.MeanLatency = time.Duration(float64(s.MeanLatency)*(1-ewmaAlpha) + float64(elapsed)*ewmaAlpha)
	}
}

func (b *statsBook) get(id string) (SourceStats, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.m[id]
	if !ok {
		return SourceStats{}, false
	}
	return *s, true
}

// snapshot copies the whole book under one lock acquisition.
func (b *statsBook) snapshot() map[string]SourceStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]SourceStats, len(b.m))
	for id, s := range b.m {
		out[id] = *s
	}
	return out
}

// Stats returns the accumulated statistics for a source.
func (m *Metasearcher) Stats(id string) (SourceStats, bool) {
	return m.stats.get(id)
}

// SourceStatEntry is one registered source's row in a StatsSnapshot.
type SourceStatEntry struct {
	// ID is the source, in registration order.
	ID string
	// Stats is the source's accumulated past performance.
	Stats SourceStats
	// Queried reports whether any query has reached the source yet (a
	// zero Stats is ambiguous on its own).
	Queried bool
}

// StatsSnapshot returns every registered source with its statistics, in
// registration order. Unlike interleaving SourceIDs with per-ID Stats
// calls, the source list and the stats book are each captured under a
// single lock acquisition, so a concurrent Add or an in-flight fan-out
// cannot skew one row of the display against another.
func (m *Metasearcher) StatsSnapshot() []SourceStatEntry {
	order := m.SourceIDs()
	book := m.stats.snapshot()
	out := make([]SourceStatEntry, len(order))
	for i, id := range order {
		st, ok := book[id]
		out[i] = SourceStatEntry{ID: id, Stats: st, Queried: ok}
	}
	return out
}

// AdaptiveSelector wraps a content-based selector with past-performance
// penalties, in the spirit of SavvySearch (§5): a source's estimated
// goodness is discounted by its observed latency and failure rate, so the
// metasearcher drifts away from slow or flaky sources even when their
// summaries look good.
type AdaptiveSelector struct {
	// Inner supplies the content-based goodness.
	Inner gloss.Selector
	// Stats supplies past performance (typically Metasearcher.Stats).
	Stats func(id string) (SourceStats, bool)
	// LatencyHalfLife is the mean latency at which goodness is halved;
	// zero disables the latency penalty.
	LatencyHalfLife time.Duration
	// FailureWeight scales the failure-rate penalty: goodness is
	// multiplied by (1 - FailureWeight·failureRate). Zero disables it.
	FailureWeight float64
	// Broken reports whether a source's circuit breaker currently
	// refuses regular traffic (typically resilient.Breaker.Broken); nil
	// disables the penalty.
	Broken func(id string) bool
	// BrokenPenalty multiplies the goodness of broken sources, so an
	// open source sorts last without being forgotten; the zero value
	// drops its goodness to zero.
	BrokenPenalty float64
}

// NewAdaptiveSelector wraps inner with this metasearcher's statistics and
// moderate default penalties.
func (m *Metasearcher) NewAdaptiveSelector(inner gloss.Selector) *AdaptiveSelector {
	return &AdaptiveSelector{
		Inner:           inner,
		Stats:           m.Stats,
		LatencyHalfLife: 2 * time.Second,
		FailureWeight:   1,
	}
}

// Name implements gloss.Selector.
func (a *AdaptiveSelector) Name() string { return "adaptive(" + a.Inner.Name() + ")" }

// Rank implements gloss.Selector.
func (a *AdaptiveSelector) Rank(q *query.Query, sources []gloss.SourceInfo) []gloss.Ranked {
	ranked := a.Inner.Rank(q, sources)
	for i := range ranked {
		if a.Broken != nil && a.Broken(ranked[i].ID) {
			ranked[i].Goodness *= a.BrokenPenalty
		}
		st, ok := a.Stats(ranked[i].ID)
		if !ok {
			continue
		}
		penalty := 1.0
		if a.LatencyHalfLife > 0 && st.MeanLatency > 0 {
			penalty /= 1 + float64(st.MeanLatency)/float64(a.LatencyHalfLife)
		}
		if a.FailureWeight > 0 {
			f := 1 - a.FailureWeight*st.FailureRate()
			if f < 0 {
				f = 0
			}
			penalty *= f
		}
		ranked[i].Goodness *= penalty
	}
	// Re-sort after the penalties.
	for i := 1; i < len(ranked); i++ {
		for j := i; j > 0 && less(ranked[j], ranked[j-1]); j-- {
			ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
		}
	}
	return ranked
}

func less(a, b gloss.Ranked) bool {
	if a.Goodness != b.Goodness {
		return a.Goodness > b.Goodness
	}
	return a.ID < b.ID
}
