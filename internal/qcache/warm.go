package qcache

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"starts/internal/obs"
	"starts/internal/query"
)

// WarmEntry is one recorded workload item: the cache fingerprint of a
// query and the whole query as @SQuery SOIF text (query.Query.Marshal),
// so a replay parses back (query.Parse) exactly the query that was served
// and fingerprints like it. Key is the fingerprint the query mapped to
// when recorded; replays recompute their own key, so a stale Key only
// costs a redundant replay, never a wrong entry.
type WarmEntry struct {
	Key   string `json:"key,omitempty"`
	Query string `json:"query,omitempty"`
}

// SaveWorkload writes entries as JSON lines, one WarmEntry per line —
// append-friendly and diffable.
func SaveWorkload(w io.Writer, entries []WarmEntry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("qcache: encoding workload entry: %w", err)
		}
	}
	return bw.Flush()
}

// LoadWorkload reads a JSON-lines workload written by SaveWorkload,
// skipping blank lines.
func LoadWorkload(r io.Reader) ([]WarmEntry, error) {
	var out []WarmEntry
	dec := json.NewDecoder(r)
	for {
		var e WarmEntry
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("qcache: decoding workload entry %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// SaveWorkloadFile replaces a workload file atomically: the entries go
// to a temporary file beside path, which is then renamed over it, so a
// crash mid-save leaves the previous workload whole rather than a
// truncated one.
func SaveWorkloadFile(path string, entries []WarmEntry) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = SaveWorkload(f, entries)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// LoadWorkloadFile reads a workload file written by SaveWorkloadFile.
func LoadWorkloadFile(path string) ([]WarmEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWorkload(f)
}

// Recorder keeps the most recent distinct served queries, bounded and
// deduplicated by cache key, so a long-running metasearcher always has a
// replayable warm-start workload of its hot queries on hand. The zero
// Recorder is not usable; NewRecorder returns one. Safe for concurrent
// use.
type Recorder struct {
	mu    sync.Mutex
	max   int
	order []string // keys, least recently recorded first
	byKey map[string]query.Query
}

// DefaultRecorderSize bounds a NewRecorder(0) recorder.
const DefaultRecorderSize = 512

// NewRecorder returns a recorder keeping up to max distinct entries
// (DefaultRecorderSize if max <= 0).
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultRecorderSize
	}
	return &Recorder{max: max, byKey: map[string]query.Query{}}
}

// Record notes one query served under key. It keeps the query by value
// and renders nothing: Entries renders it when the workload is read.
// Re-recording a key refreshes its query and its recency; past capacity
// the least recently recorded entry is dropped, so the recorder tracks
// the hot set, not the full history.
func (r *Recorder) Record(key string, q *query.Query) {
	if r == nil || key == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.byKey[key]; known {
		for i, k := range r.order {
			if k == key {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
	}
	r.byKey[key] = *q
	r.order = append(r.order, key)
	for len(r.order) > r.max {
		delete(r.byKey, r.order[0])
		r.order = r.order[1:]
	}
}

// Entries lists the recorded workload, least recently recorded first,
// each query rendered as @SQuery text. A query that does not render
// records no text, so its replay counts as an error.
func (r *Recorder) Entries() []WarmEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]WarmEntry, len(r.order))
	qs := make([]query.Query, len(r.order))
	for i, k := range r.order {
		out[i].Key, qs[i] = k, r.byKey[k]
	}
	r.mu.Unlock()
	for i := range qs {
		text, _ := qs[i].Marshal()
		out[i].Query = string(text)
	}
	return out
}

// WarmStats reports one Warm run.
type WarmStats struct {
	// Replayed counts entries whose replay succeeded.
	Replayed int
	// Skipped counts duplicates and entries already fresh in the cache.
	Skipped int
	// Errors counts entries whose replay failed (parse or search).
	Errors int
	// Elapsed is the whole replay's wall time.
	Elapsed time.Duration
}

// String summarizes the stats for logs and shells.
func (s WarmStats) String() string {
	return fmt.Sprintf("replayed %d (skipped %d, errors %d) in %v",
		s.Replayed, s.Skipped, s.Errors, s.Elapsed.Round(time.Millisecond))
}

// DefaultWarmConcurrency bounds Warm's replay parallelism when the
// caller passes 0.
const DefaultWarmConcurrency = 4

// Warm replays a recorded workload so a restarted process does not take
// a cold-start latency cliff on its hot queries. Each entry runs through
// run — typically a cache-fronted search whose fills pass this cache's
// admission gate — with at most concurrency replays in flight
// (DefaultWarmConcurrency if <= 0). Entries with a Key are deduplicated
// and skipped when the key is already fresh; a cancelled ctx stops
// launching new replays. Outcomes count into the registry as the
// starts_qcache_warm_* metrics.
func (c *Cache) Warm(ctx context.Context, entries []WarmEntry, concurrency int, run func(context.Context, WarmEntry) error) WarmStats {
	start := time.Now()
	if concurrency <= 0 {
		concurrency = DefaultWarmConcurrency
	}
	var (
		mu    sync.Mutex
		stats WarmStats
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, concurrency)
	seen := map[string]bool{}
	for _, e := range entries {
		if ctx.Err() != nil {
			break
		}
		if e.Key != "" {
			if seen[e.Key] {
				stats.Skipped++
				continue
			}
			seen[e.Key] = true
			if _, fresh := c.Get(e.Key); fresh {
				stats.Skipped++
				continue
			}
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(e WarmEntry) {
			defer wg.Done()
			defer func() { <-sem }()
			err := run(ctx, e)
			mu.Lock()
			if err != nil {
				stats.Errors++
			} else {
				stats.Replayed++
			}
			mu.Unlock()
		}(e)
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	c.metrics.Counter(obs.MQCacheWarmReplayed).Add(int64(stats.Replayed))
	c.metrics.Counter(obs.MQCacheWarmSkipped).Add(int64(stats.Skipped))
	c.metrics.Counter(obs.MQCacheWarmErrors).Add(int64(stats.Errors))
	c.metrics.Histogram(obs.MQCacheWarmSeconds).Observe(stats.Elapsed)
	return stats
}
