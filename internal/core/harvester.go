package core

import (
	"context"
	"time"
)

// HarvestDue refreshes every source whose harvested metadata is missing,
// marked stale by a failed refresh, already expired, or expiring within
// lead — the incremental-harvesting discipline of OAI-style repositories
// applied to STARTS metadata: instead of re-pulling the whole fleet,
// each sweep touches only the sources whose DateExpires says their turn
// has come. Refreshes run concurrently through the dispatch layer under
// the "harvest" key, so a sweep never duplicates a fetch a concurrent
// search already has in flight. It returns the per-source errors for
// the sources that were due (empty when nothing was).
func (m *Metasearcher) HarvestDue(ctx context.Context, lead time.Duration) map[string]error {
	m.mu.RLock()
	now := m.opts.Now()
	var due []string
	for i, mem := range m.members {
		if harvestDue(m.entries[i], now, lead) {
			due = append(due, mem.id)
		}
	}
	m.mu.RUnlock()
	m.metrics.Counter("starts_harvester_due_total").Add(int64(len(due)))
	errs := m.harvestIDs(ctx, due)
	out := make(map[string]error, len(due))
	for _, id := range due {
		out[id] = errs[id]
		if errs[id] != nil {
			m.metrics.Counter("starts_harvester_errors_total").Inc()
		}
	}
	return out
}

// harvestDue reports whether an entry needs a scheduled refresh at now,
// looking lead ahead so an entry expiring before the next sweep is
// renewed by this one. Entries without a DateExpires never expire and
// are only re-pulled if a failed refresh left them marked stale.
func harvestDue(e *entry, now time.Time, lead time.Duration) bool {
	if e == nil || e.stale {
		return true
	}
	exp := e.meta.DateExpires
	return !exp.IsZero() && now.Add(lead).After(exp)
}

// StartHarvester runs HarvestDue every interval until ctx ends, keeping
// source metadata and content summaries continuously fresh instead of
// re-harvesting lazily at search time. A lead of 0 defaults to twice
// the interval (an entry expiring between two sweeps is caught by the
// earlier one); an interval of 0 defaults to one minute. The returned
// channel closes when the harvester has stopped.
func (m *Metasearcher) StartHarvester(ctx context.Context, interval, lead time.Duration) <-chan struct{} {
	if interval <= 0 {
		interval = time.Minute
	}
	if lead <= 0 {
		lead = 2 * interval
	}
	return every(ctx, interval, func() {
		m.metrics.Counter("starts_harvester_ticks_total").Inc()
		m.HarvestDue(ctx, lead)
	}, nil)
}
