package qcache

import (
	"container/list"
	"sync"
	"time"

	"starts/internal/obs"
)

// Entry is one stored value with its freshness bounds. Values are shared
// across callers and must be treated as read-only.
type Entry struct {
	// Val is the cached value.
	Val any
	// Expires bounds the entry's fresh lifetime.
	Expires time.Time
	// StaleUntil bounds how long past Expires the entry may still be
	// served stale while a background refresh runs.
	StaleUntil time.Time
}

// dead reports whether the entry is past even its stale window.
func (e Entry) dead(now time.Time) bool { return now.After(e.StaleUntil) }

// Store is the cache's pluggable storage backend, keyed by the same
// canonical query fingerprints Keyer produces. The Cache keeps the
// admission gate and the one refresh per stale key in front of any
// Store, so a backend only ever sees admission-bounded fills — a shared
// backend (e.g. a peer metasearcher tier) plugs in here without
// re-implementing either.
//
// Implementations must be safe for concurrent use. Get receives the
// cache's current time so a store may prune entries it finds dead (past
// StaleUntil); it must report such entries as absent either way.
type Store interface {
	// Get returns the live entry under key, if any.
	Get(key string, now time.Time) (Entry, bool)
	// Put inserts or replaces the entry under key, evicting as the
	// backend's capacity policy requires.
	Put(key string, e Entry)
	// Evict removes key if present.
	Evict(key string)
	// Len reports the live entry count.
	Len() int
}

// lruStore is the default Store: a sharded LRU bounded at a per-shard
// capacity, each shard one lock domain with a map into an LRU list
// (front = most recently used).
type lruStore struct {
	shards    []*lruShard
	mask      uint32
	perShard  int
	entries   *obs.Gauge
	evictions *obs.Counter
}

type lruShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	ll    *list.List
}

// lruItem is one LRU list element: the entry plus its key, so tail
// eviction can delete from the map.
type lruItem struct {
	key string
	e   Entry
}

// NewLRUStore returns the default sharded LRU+TTL store: maxEntries
// bounds the size across all shards (default 4096), shards is rounded up
// to a power of two (default 16; more shards, less mutex contention).
// Evictions and the live-entry count record into reg (nil allocates a
// private registry) as obs.MQCacheEvictions and obs.MQCacheEntries.
func NewLRUStore(maxEntries, shards int, reg *obs.Registry) Store {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if shards <= 0 {
		shards = 16
	}
	nshards := 1
	for nshards < shards {
		nshards <<= 1
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &lruStore{
		shards:    make([]*lruShard, nshards),
		mask:      uint32(nshards - 1),
		perShard:  (maxEntries + nshards - 1) / nshards,
		entries:   reg.Gauge(obs.MQCacheEntries),
		evictions: reg.Counter(obs.MQCacheEvictions),
	}
	for i := range s.shards {
		s.shards[i] = &lruShard{items: map[string]*list.Element{}, ll: list.New()}
	}
	return s
}

func (s *lruStore) shard(key string) *lruShard {
	return s.shards[fnv32a(key)&s.mask]
}

// Get finds key, touching live entries and pruning dead ones under the
// shard lock.
func (s *lruStore) Get(key string, now time.Time) (Entry, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		return Entry{}, false
	}
	it := el.Value.(*lruItem)
	if it.e.dead(now) {
		sh.ll.Remove(el)
		delete(sh.items, key)
		s.entries.Add(-1)
		return Entry{}, false
	}
	sh.ll.MoveToFront(el)
	return it.e, true
}

// Put inserts (or refreshes) key, evicting from the shard's LRU tail
// past its capacity.
func (s *lruStore) Put(key string, e Entry) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		el.Value = &lruItem{key: key, e: e}
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[key] = sh.ll.PushFront(&lruItem{key: key, e: e})
	s.entries.Add(1)
	for sh.ll.Len() > s.perShard {
		tail := sh.ll.Back()
		sh.ll.Remove(tail)
		delete(sh.items, tail.Value.(*lruItem).key)
		s.entries.Add(-1)
		s.evictions.Inc()
	}
}

// Evict removes key if present.
func (s *lruStore) Evict(key string) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		sh.ll.Remove(el)
		delete(sh.items, key)
		s.entries.Add(-1)
	}
}

// Len reports the live entry count across all shards.
func (s *lruStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// fnv32a is the 32-bit FNV-1a hash, used only to pick a shard.
func fnv32a(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}
