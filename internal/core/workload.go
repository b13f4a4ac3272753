package core

import (
	"context"
	"time"

	"starts/internal/qcache"
)

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
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				m.SaveWorkload(path)
				return
			case <-t.C:
				m.SaveWorkload(path)
			}
		}
	}()
	return done
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
