package core

import (
	"starts/internal/obs"
	"starts/internal/qcache"
)

// searchConfig is what one Search call adds to the metasearcher's
// Options: where its trace goes and how it meets the query cache.
type searchConfig struct {
	trace   *obs.Trace
	cache   *qcache.Cache // Options.Cache unless WithCache replaced it
	noCache bool
}

// SearchOption sets how one search is traced or cached. Everything that
// shapes its answer is fixed in the metasearcher's Options.
type SearchOption func(*searchConfig)

// WithCache serves this search through c, overriding (or supplying) the
// metasearcher's Options.Cache for this call only.
func WithCache(c *qcache.Cache) SearchOption {
	return func(cfg *searchConfig) { cfg.cache = c }
}

// WithNoCache bypasses the query-result cache for this search: the full
// pipeline always runs and its answer is not stored. Use it for queries
// whose answers must reflect the sources right now.
func WithNoCache() SearchOption {
	return func(cfg *searchConfig) { cfg.noCache = true }
}

// WithTrace records this search's span tree into t (its zero value is
// fine; Search re-begins it), so the caller keeps the trace even when it
// discards the answer:
//
//	var tr obs.Trace
//	ans, err := ms.Search(ctx, q, core.WithTrace(&tr))
//	fmt.Print(tr.Snapshot().Tree())
func WithTrace(t *obs.Trace) SearchOption {
	return func(c *searchConfig) { c.trace = t }
}
