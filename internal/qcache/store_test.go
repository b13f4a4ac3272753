package qcache

import (
	"context"
	"sync"
	"testing"
	"time"

	"starts/internal/obs"
)

// mapStore is a deliberately naive Store: a flat locked map that never
// prunes. It stands in for an external backend to prove the Store seam —
// stale serving and the gate must keep working in front of it, and the
// cache must evict dead entries it leaves behind.
type mapStore struct {
	mu   sync.Mutex
	m    map[string]Entry
	puts int
}

func newMapStore() *mapStore { return &mapStore{m: map[string]Entry{}} }

func (s *mapStore) Get(key string, _ time.Time) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	return e, ok
}

func (s *mapStore) Put(key string, e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = e
	s.puts++
}

func (s *mapStore) Evict(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
}

func (s *mapStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func TestCustomStoreServesFullPolicy(t *testing.T) {
	clk := newFakeClock()
	st := newMapStore()
	c := New(Config{TTL: time.Minute, Store: st, Now: clk.now})
	ctx := context.Background()

	if _, out, err := c.Do(ctx, "k", fillConst("v1")); err != nil || out != Filled {
		t.Fatalf("first Do = %v, %v; want miss", out, err)
	}
	if v, out, _ := c.Do(ctx, "k", fillConst("v2")); out != Hit || v != "v1" {
		t.Fatalf("second Do = %v, %v; want cached v1, hit", v, out)
	}
	if st.Len() != 1 {
		t.Fatalf("store Len = %d, want 1", st.Len())
	}

	// Expired within the stale window: served stale from the custom store.
	clk.advance(2 * time.Minute)
	if v, out, _ := c.Do(ctx, "k", fillConst("v2")); out != Stale || v != "v1" {
		t.Fatalf("post-TTL Do = %v, %v; want stale v1", v, out)
	}
	// Wait for the background refresh to land so it cannot race the
	// refill below.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if v, ok := c.Get("k"); ok && v == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale-triggered refresh never landed in the custom store")
		}
		time.Sleep(time.Millisecond)
	}

	// Dead past the stale window: the cache evicts from a store that does
	// not prune for itself, then refills.
	clk.advance(2 * time.Hour)
	if v, out, _ := c.Do(ctx, "k", fillConst("v3")); out != Filled || v != "v3" {
		t.Fatalf("post-stale Do = %v, %v; want refilled v3", v, out)
	}
	if st.Len() != 1 {
		t.Fatalf("store Len = %d after dead-entry eviction + refill, want 1", st.Len())
	}
}

func TestLRUStoreDirect(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewLRUStore(2, 1, reg)
	now := time.Unix(1000, 0)
	live := Entry{Val: 1, Expires: now.Add(time.Hour), StaleUntil: now.Add(2 * time.Hour)}

	st.Put("a", live)
	st.Put("b", live)
	if _, ok := st.Get("a", now); !ok {
		t.Fatal("a missing before capacity reached")
	}
	// a was just touched, so inserting c evicts b (the LRU tail).
	st.Put("c", live)
	if _, ok := st.Get("b", now); ok {
		t.Fatal("b survived past capacity; want LRU eviction")
	}
	if _, ok := st.Get("a", now); !ok {
		t.Fatal("recently-touched a was evicted instead of LRU b")
	}
	if got := st.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := reg.Counter(obs.MQCacheEvictions).Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := reg.Gauge(obs.MQCacheEntries).Value(); got != 2 {
		t.Fatalf("entries gauge = %d, want 2", got)
	}

	// Dead entries are pruned on Get.
	dead := Entry{Val: 2, Expires: now.Add(-2 * time.Hour), StaleUntil: now.Add(-time.Hour)}
	st.Put("d", dead)
	if _, ok := st.Get("d", now); ok {
		t.Fatal("dead entry served from LRU store")
	}
}

// Entry.dead is the shared liveness rule stores may use for pruning.
func TestEntryDead(t *testing.T) {
	now := time.Unix(1000, 0)
	e := Entry{Expires: now.Add(time.Minute), StaleUntil: now.Add(time.Hour)}
	if e.dead(now) {
		t.Fatal("fresh entry reported dead")
	}
	if e.dead(now.Add(30 * time.Minute)) {
		t.Fatal("stale-but-servable entry reported dead")
	}
	if !e.dead(now.Add(2 * time.Hour)) {
		t.Fatal("entry past StaleUntil reported alive")
	}
}
