package qcache

import (
	"context"
	"sync"
	"time"

	"starts/internal/obs"
)

// Every entry lifetime a fill names is clamped to [TTLFloor, TTLCeiling]:
// a source already past its DateExpires still caches briefly instead of
// thrashing the fan-out. An expired entry serves stale
// (stale-while-revalidate) for staleTTLs times the cache's Config.TTL.
const (
	TTLFloor   = time.Second
	TTLCeiling = 24 * time.Hour
	staleTTLs  = 4
)

// Config configures a Cache. The zero value is usable: 4096 entries over
// NewLRUStore's default shards, one-minute TTL, no admission bound, and a
// private metrics registry. A full admission gate sheds after
// DefaultQueueTimeout.
type Config struct {
	// MaxEntries bounds the default store's size across all shards
	// (default 4096). Ignored when Store is set.
	MaxEntries int
	// TTL is how long an entry serves fresh when the fill does not name
	// its own lifetime (default one minute).
	TTL time.Duration
	// MaxInflight bounds concurrent fills (cache misses running the
	// expensive fan-out). Zero leaves fills unbounded.
	MaxInflight int
	// Store overrides the storage backend; nil builds the default
	// sharded LRU from MaxEntries. The admission gate and the one
	// refresh per stale key stay in front of any store, so a distributed
	// backend plugs in here without re-implementing either.
	Store Store
	// Metrics receives the cache's counters, gauge and hit-path
	// histogram; nil allocates a private registry. Share one registry
	// across components for a single /metrics view.
	Metrics *obs.Registry
	// Now overrides the clock, for expiry tests.
	Now func() time.Time
}

// Outcome classifies how one Do call was served.
type Outcome int

const (
	// Filled: this call missed and ran the fill.
	Filled Outcome = iota
	// Hit: served a fresh entry.
	Hit
	// Stale: served an expired entry while a background refresh ran.
	Stale
	// Coalesced is never returned (concurrent misses each fill); it stays
	// declared for code that still compares against it.
	Coalesced
)

// String implements fmt.Stringer for trace annotations.
func (o Outcome) String() string {
	switch o {
	case Filled:
		return "miss"
	case Hit:
		return "hit"
	case Stale:
		return "stale"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// TTLFill computes a value together with its freshness lifetime. A ttl
// of 0 takes the cache's Config.TTL; any other value is clamped to
// [TTLFloor, TTLCeiling], so a negative remaining lifetime (a source
// already past its DateExpires) caches for the floor instead of nothing.
// refresh is false when the fill runs for a miss, on the calling
// goroutine and context, and true when it runs as a stale entry's
// background refresh, detached from a call that has already returned.
type TTLFill func(ctx context.Context, refresh bool) (val any, ttl time.Duration, err error)

// Cache is a sharded LRU+TTL query-result cache with
// stale-while-revalidate and load shedding. All methods are safe for
// concurrent use. Cached values are shared across callers and must be
// treated as read-only.
type Cache struct {
	storage    Store
	ttl        time.Duration
	gate       *Gate
	refreshing sync.Map // keys with a background refresh running
	now        func() time.Time

	metrics    *obs.Registry
	hits       *obs.Counter
	misses     *obs.Counter
	stales     *obs.Counter
	refreshErr *obs.Counter
	hitSeconds *obs.Histogram
	ttlSeconds *obs.Histogram
}

// New returns a cache for the config (zero Config takes the defaults).
func New(cfg Config) *Cache {
	if cfg.TTL <= 0 {
		cfg.TTL = time.Minute
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Store == nil {
		cfg.Store = NewLRUStore(cfg.MaxEntries, 0, cfg.Metrics)
	}
	return &Cache{
		storage:    cfg.Store,
		ttl:        cfg.TTL,
		gate:       NewGate(cfg.MaxInflight, DefaultQueueTimeout, cfg.Metrics),
		now:        cfg.Now,
		metrics:    cfg.Metrics,
		hits:       cfg.Metrics.Counter(obs.MQCacheHits),
		misses:     cfg.Metrics.Counter(obs.MQCacheMisses),
		stales:     cfg.Metrics.Counter(obs.MQCacheStale),
		refreshErr: cfg.Metrics.Counter(obs.MQCacheRefreshErrors),
		hitSeconds: cfg.Metrics.Histogram(obs.MQCacheHitSeconds),
		ttlSeconds: cfg.Metrics.Histogram(obs.MQCacheEntryTTLSeconds),
	}
}

// Do serves key from the cache, filling it with fill on a miss. It is
// DoTTL with every entry taking the cache's Config.TTL.
func (c *Cache) Do(ctx context.Context, key string, fill func(context.Context) (any, error)) (any, Outcome, error) {
	return c.DoTTL(ctx, key, func(fctx context.Context, _ bool) (any, time.Duration, error) {
		v, err := fill(fctx)
		return v, 0, err
	})
}

// DoTTL serves key from the cache, filling it with fill on a miss:
//
//   - fresh entry: returned immediately (Outcome Hit);
//   - expired entry within the stale window: returned immediately while
//     one background refresh per key runs fill with a detached context
//     and refresh set (Outcome Stale) — callers should surface the
//     staleness, e.g. via core's Answer.Degraded;
//   - miss: acquires an admission slot (ErrShed within the queue timeout
//     if the gate is full), runs fill on ctx, stores a successful result
//     under the fill's lifetime (Outcome Filled). Errors are returned,
//     never cached.
//
// Concurrent misses for one key each run their own fill (core's share
// their wire calls in the dispatcher). The fill names each entry's own
// freshness lifetime (see TTLFill), so a fast-moving source expires
// quickly while an archival one caches for hours. The returned value is shared — treat it as read-only.
func (c *Cache) DoTTL(ctx context.Context, key string, fill TTLFill) (any, Outcome, error) {
	start := c.now()
	if v, state := c.lookup(key); state == lookupFresh {
		c.hits.Inc()
		c.hitSeconds.Observe(c.now().Sub(start))
		return v, Hit, nil
	} else if state == lookupStale {
		c.stales.Inc()
		c.refreshAsync(key, fill)
		c.hitSeconds.Observe(c.now().Sub(start))
		return v, Stale, nil
	}
	// Every miss counts, filled or failed: hits+misses+stales is the
	// number of calls, so hit-ratio math stays honest under errors.
	c.misses.Inc()
	release, err := c.gate.Acquire(ctx)
	if err != nil {
		return nil, Filled, err
	}
	defer release()
	v, ttl, err := fill(ctx, false)
	if err != nil {
		return nil, Filled, err
	}
	c.put(key, v, ttl)
	return v, Filled, nil
}

// refreshAsync starts a background refresh for key unless one is already
// running. The refresh runs under a background context (the triggering
// request is long gone by the time it finishes) but still passes the
// admission gate, so SWR refreshes cannot stampede an overloaded backend:
// a shed refresh simply leaves the stale entry in service.
func (c *Cache) refreshAsync(key string, fill TTLFill) {
	if _, running := c.refreshing.LoadOrStore(key, struct{}{}); running {
		return
	}
	go func() {
		filled := false
		// Every failed refresh — shed, error or panicking fill — counts
		// here, and goes no further; the stale entry stays in service.
		defer func() {
			if recover() != nil || !filled {
				c.refreshErr.Inc()
			}
			c.refreshing.Delete(key)
		}()
		ctx := context.Background()
		release, err := c.gate.Acquire(ctx)
		if err != nil {
			return
		}
		defer release()
		if v, ttl, err := fill(ctx, true); err == nil {
			c.put(key, v, ttl)
			filled = true
		}
	}()
}

// Get returns the cached value for key if it is fresh. It never serves
// stale and never fills; use Do for the full serving policy.
func (c *Cache) Get(key string) (any, bool) {
	v, state := c.lookup(key)
	if state != lookupFresh {
		return nil, false
	}
	return v, true
}

// Put stores val under key with the cache's Config.TTL, unconditionally.
func (c *Cache) Put(key string, val any) { c.put(key, val, 0) }

type lookupState int

const (
	lookupMiss lookupState = iota
	lookupFresh
	lookupStale
)

// lookup finds key in the store and classifies its freshness.
func (c *Cache) lookup(key string) (any, lookupState) {
	now := c.now()
	e, ok := c.storage.Get(key, now)
	if !ok {
		return nil, lookupMiss
	}
	switch {
	case !now.After(e.Expires):
		return e.Val, lookupFresh
	case !now.After(e.StaleUntil):
		return e.Val, lookupStale
	default:
		// A store that does not prune dead entries itself still misses.
		c.storage.Evict(key)
		return nil, lookupMiss
	}
}

// put stores key for the clamped lifetime (see TTLFill for the ttl
// contract), recording explicit lifetimes into the TTL histogram.
func (c *Cache) put(key string, val any, ttl time.Duration) {
	eff := c.effectiveTTL(ttl)
	if ttl != 0 {
		c.ttlSeconds.Observe(eff)
	}
	now := c.now()
	c.storage.Put(key, Entry{Val: val, Expires: now.Add(eff), StaleUntil: now.Add(eff + staleTTLs*c.ttl)})
}

// effectiveTTL resolves one entry's lifetime: the fallback Config.TTL
// for 0, the clamp to [TTLFloor, TTLCeiling] for everything else.
func (c *Cache) effectiveTTL(ttl time.Duration) time.Duration {
	switch {
	case ttl == 0:
		return c.ttl
	case ttl < TTLFloor:
		return TTLFloor
	case ttl > TTLCeiling:
		return TTLCeiling
	}
	return ttl
}
