package core

import (
	"context"
	"time"

	"starts/internal/qcache"
)

// RefreshAhead scans the recorded workload for hot cache entries that
// will expire within lead and re-fills them in the background, so they
// never fall off the fast path: the refreshes reuse the cache's
// stale-while-revalidate machinery (deduplicated per key, bounded by the
// admission gate) and their fan-outs flow through the dispatch layer
// like any other search. It returns the number of refreshes started and
// does nothing without Options.Cache.
func (m *Metasearcher) RefreshAhead(lead time.Duration) int {
	m.mu.RLock()
	opts := m.opts
	m.mu.RUnlock()
	cache := opts.Cache
	if cache == nil {
		return 0
	}
	started := 0
	for _, e := range m.workload.Entries() {
		q, err := warmQuery(e)
		if err != nil {
			continue // recorded but not replayable; Warm counts these
		}
		// Fingerprint under the baseline options — what a plain Search
		// would use — matching the options the refresh fill runs under.
		key := m.cacheKey(q, opts)
		if !cache.ExpiresWithin(key, lead) {
			continue
		}
		cache.Refresh(key, m.fillFor(q, opts))
		m.metrics.Counter("starts_refresh_ahead_total").Inc()
		started++
	}
	return started
}

// StartRefresher runs RefreshAhead every interval until ctx ends,
// keeping hot entries fresh proactively. A lead of 0 defaults to twice
// the interval, so an entry expiring between two sweeps is still caught
// by the earlier one; an interval of 0 defaults to one minute. The
// returned channel closes when the refresher has stopped.
func (m *Metasearcher) StartRefresher(ctx context.Context, interval, lead time.Duration) <-chan struct{} {
	if interval <= 0 {
		interval = time.Minute
	}
	if lead <= 0 {
		lead = 2 * interval
	}
	return every(ctx, interval, func() { m.RefreshAhead(lead) }, nil)
}

// every runs fn each interval until ctx ends, then onStop (if any), and
// closes the returned channel once it has stopped: the loop behind
// StartHarvester, StartRefresher and StartWorkloadSaver.
func every(ctx context.Context, interval time.Duration, fn, onStop func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				if onStop != nil {
					onStop()
				}
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return done
}

// StartWorkloadSaver snapshots the recorded warm-start workload to path
// every interval until ctx ends, then once more on the way out — so a
// crash loses at most one interval of the hot set instead of everything
// a clean-exit-only save would. Save failures are counted
// (starts_workload_save_errors_total), never fatal. An interval of 0
// defaults to one minute. The returned channel closes after the final
// save.
func (m *Metasearcher) StartWorkloadSaver(ctx context.Context, path string, interval time.Duration) <-chan struct{} {
	if interval <= 0 {
		interval = time.Minute
	}
	save := func() { m.SaveWorkload(path) }
	return every(ctx, interval, save, save)
}

// SaveWorkload persists the current workload snapshot to path, counting
// the attempt into the metrics registry. It reports whether the save
// succeeded.
func (m *Metasearcher) SaveWorkload(path string) bool {
	if err := qcache.SaveWorkloadFile(path, m.Workload()); err != nil {
		m.metrics.Counter("starts_workload_save_errors_total").Inc()
		return false
	}
	m.metrics.Counter("starts_workload_saves_total").Inc()
	return true
}
