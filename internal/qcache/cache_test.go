package qcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/obs"
)

// fakeClock is a settable clock for expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func fillConst(v any) func(context.Context) (any, error) {
	return func(context.Context) (any, error) { return v, nil }
}

func TestDoHitMissTTL(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	c := New(Config{TTL: time.Minute, Metrics: reg, Now: clk.now})
	ctx := context.Background()

	v, out, err := c.Do(ctx, "k", fillConst("one"))
	if err != nil || out != Filled || v != "one" {
		t.Fatalf("first Do = %v, %v, %v; want one, miss, nil", v, out, err)
	}
	v, out, _ = c.Do(ctx, "k", fillConst("two"))
	if out != Hit || v != "one" {
		t.Fatalf("second Do = %v, %v; want cached one, hit", v, out)
	}
	// Past the TTL and the stale window behind it: a plain miss refills.
	clk.advance((1+staleTTLs)*time.Minute + time.Second)
	v, out, _ = c.Do(ctx, "k", fillConst("two"))
	if out != Filled || v != "two" {
		t.Fatalf("post-TTL Do = %v, %v; want two, miss", v, out)
	}
	if got := reg.Counter(obs.MQCacheHits).Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := reg.Counter(obs.MQCacheMisses).Value(); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := reg.Gauge(obs.MQCacheEntries).Value(); got != 1 {
		t.Errorf("entries gauge = %d, want 1", got)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, "k", func(context.Context) (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, out, err := c.Do(ctx, "k", fillConst("ok"))
	if err != nil || out != Filled || v != "ok" {
		t.Fatalf("Do after error = %v, %v, %v; want ok, miss, nil", v, out, err)
	}
}

func TestStaleWhileRevalidate(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	c := New(Config{TTL: time.Minute, Metrics: reg, Now: clk.now})
	ctx := context.Background()

	var fills atomic.Int64
	fill := func(context.Context) (any, error) {
		return fmt.Sprintf("v%d", fills.Add(1)), nil
	}
	if v, out, _ := c.Do(ctx, "k", fill); out != Filled || v != "v1" {
		t.Fatalf("prime = %v, %v", v, out)
	}
	clk.advance(3 * time.Minute) // expired, within the stale window

	v, out, err := c.Do(ctx, "k", fill)
	if err != nil || out != Stale || v != "v1" {
		t.Fatalf("stale Do = %v, %v, %v; want v1, stale, nil", v, out, err)
	}
	// The background refresh replaces the entry; poll until it lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := c.Get("k"); ok && v == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background refresh never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if v, out, _ := c.Do(ctx, "k", fill); out != Hit || v != "v2" {
		t.Fatalf("post-refresh Do = %v, %v; want v2, hit", v, out)
	}
	if got := reg.Counter(obs.MQCacheStale).Value(); got != 1 {
		t.Errorf("stale counter = %d, want 1", got)
	}
	// Far past the stale window the entry is gone entirely.
	clk.advance(time.Hour)
	if _, out, _ := c.Do(ctx, "k", fill); out != Filled {
		t.Errorf("outcome past stale window = %v, want miss", out)
	}
}

// A fill is told which role it runs in: a miss's leader runs it with
// refresh false, a stale serve's background refresh with refresh true.
func TestDoTTLTellsTheFillItsRole(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{TTL: time.Minute, Now: clk.now})
	ctx := context.Background()
	roles := make(chan bool, 2)
	fill := func(_ context.Context, refresh bool) (any, time.Duration, error) {
		roles <- refresh
		return "v", 0, nil
	}
	if _, out, err := c.DoTTL(ctx, "k", fill); err != nil || out != Filled {
		t.Fatalf("prime = %v, %v; want miss, nil", out, err)
	}
	if refresh := <-roles; refresh {
		t.Error("the leader's fill ran with refresh set")
	}
	clk.advance(3 * time.Minute)
	if _, out, err := c.DoTTL(ctx, "k", fill); err != nil || out != Stale {
		t.Fatalf("stale DoTTL = %v, %v; want stale, nil", out, err)
	}
	select {
	case refresh := <-roles:
		if !refresh {
			t.Error("the background refresh ran with refresh unset")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("background refresh never ran")
	}
}

// TestStaleServesDoNotStampede: many concurrent stale serves trigger at
// most one background refresh.
func TestStaleServesDoNotStampede(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{TTL: time.Minute, Now: clk.now})
	ctx := context.Background()

	var fills atomic.Int64
	block := make(chan struct{})
	fill := func(context.Context) (any, error) {
		if fills.Add(1) > 1 {
			<-block
		}
		return "v", nil
	}
	if _, _, err := c.Do(ctx, "k", fill); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute)

	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, out, err := c.Do(ctx, "k", fill); err != nil || out != Stale {
				t.Errorf("stale Do = %v, %v", out, err)
			}
		}()
	}
	wg.Wait()
	close(block)
	// 1 prime + exactly 1 refresh: one refresh per key, and once the refresh
	// lands the entry is fresh again so no further refresh can start.
	deadline := time.Now().Add(5 * time.Second)
	for fills.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("refresh never ran (fills = %d)", fills.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := fills.Load(); got != 2 {
		t.Errorf("fills = %d, want 2 (prime + one deduped refresh)", got)
	}
}

// Concurrent misses for one key each take a gate slot and run their own
// fill: the cache shares nothing in flight (core shares each source's
// wire call one layer down, in the dispatcher), so no caller's context
// or failure reaches another's answer.
func TestConcurrentMissesEachFill(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{Metrics: reg})
	ctx := context.Background()

	const callers = 10
	var fills atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, out, err := c.Do(ctx, "k", func(context.Context) (any, error) {
				fills.Add(1)
				return "v", nil
			}); err != nil || (out != Filled && out != Hit) {
				t.Errorf("Do = %v, %v", out, err)
			}
		}()
	}
	wg.Wait()
	hits, misses := reg.Counter(obs.MQCacheHits).Value(), reg.Counter(obs.MQCacheMisses).Value()
	if hits+misses != callers || fills.Load() != misses {
		t.Errorf("hits %d + misses %d, fills %d; want %d calls and one fill per miss", hits, misses, fills.Load(), callers)
	}
}

func TestShedding(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxInflight: 1, Metrics: reg})
	ctx := context.Background()

	hold := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do(ctx, "slow", func(context.Context) (any, error) {
			close(started)
			<-hold
			return "v", nil
		})
	}()
	<-started

	// Another key must wait for the gate and be shed within the queue
	// timeout.
	begin := time.Now()
	_, _, err := c.Do(ctx, "other", fillConst("x"))
	elapsed := time.Since(begin)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if elapsed > time.Second {
		t.Errorf("shed took %v, want within the queue timeout", elapsed)
	}
	if got := reg.Counter(obs.MQCacheShed).Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	close(hold)

	// With the slot free again, the same key fills normally.
	if _, out, err := c.Do(ctx, "other", fillConst("x")); err != nil || out != Filled {
		t.Errorf("post-release Do = %v, %v", out, err)
	}
}

func TestLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	// One shard so the LRU order is global and deterministic.
	st := NewLRUStore(3, 1, reg)
	c := New(Config{Store: st, Metrics: reg})
	ctx := context.Background()
	for _, k := range []string{"a", "b", "c"} {
		if _, _, err := c.Do(ctx, k, fillConst(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if _, _, err := c.Do(ctx, "d", fillConst("d")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("b"); ok {
		t.Errorf("b survived eviction; want it evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted; want it resident", k)
		}
	}
	if got := st.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := reg.Counter(obs.MQCacheEvictions).Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := reg.Gauge(obs.MQCacheEntries).Value(); got != 3 {
		t.Errorf("entries gauge = %d, want 3", got)
	}
}

// TestConcurrentMixedLoad drives every path at once under -race.
func TestConcurrentMixedLoad(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Store: NewLRUStore(32, 4, nil), TTL: time.Minute,
		MaxInflight: 4, Now: clk.now})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%40)
				_, _, err := c.Do(ctx, key, fillConst(key))
				if err != nil && !errors.Is(err, ErrShed) {
					t.Errorf("Do: %v", err)
					return
				}
				if i%50 == 0 {
					clk.advance(30 * time.Second)
				}
			}
		}(g)
	}
	wg.Wait()
}

// Per-entry lifetimes: a TTLFill's ttl is honored verbatim inside
// [TTLFloor, TTLCeiling], clamped outside it, and 0 falls back to
// Config.TTL.
func TestPerEntryTTLClamping(t *testing.T) {
	cases := []struct {
		name string
		ttl  time.Duration
		want time.Duration // effective fresh lifetime
	}{
		{"fallback", 0, time.Minute},
		{"in-bounds", 30 * time.Second, 30 * time.Second},
		{"below-floor", 100 * time.Millisecond, TTLFloor},
		{"negative-past-expiry", -5 * time.Minute, TTLFloor},
		{"above-ceiling", 48 * time.Hour, TTLCeiling},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			c := New(Config{TTL: time.Minute, Now: clk.now})
			ctx := context.Background()
			_, out, err := c.DoTTL(ctx, "k", func(context.Context, bool) (any, time.Duration, error) {
				return "v", tc.ttl, nil
			})
			if err != nil || out != Filled {
				t.Fatalf("DoTTL = %v, %v; want miss, nil", out, err)
			}
			// Just inside the expected lifetime: still fresh.
			clk.advance(tc.want - time.Millisecond)
			if _, ok := c.Get("k"); !ok {
				t.Fatalf("entry expired before its %v lifetime", tc.want)
			}
			// Just past it: expired.
			clk.advance(2 * time.Millisecond)
			if _, ok := c.Get("k"); ok {
				t.Fatalf("entry still fresh past its %v lifetime", tc.want)
			}
		})
	}
}

// hits+misses+stales must equal the number of Do calls even when fills
// fail — the old code only counted misses on successful fills, so every
// error silently skewed the hit ratio — and when a miss arrives while
// another fill for its key is running. The hit path must also use the
// injected clock: under a fake clock that never advances mid-call, the
// hit histogram observes only zeros.
func TestCounterInvariantAndInjectedClock(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	c := New(Config{TTL: time.Minute, Metrics: reg, Now: clk.now})
	ctx := context.Background()
	calls := 0

	do := func(key string, fill func(context.Context) (any, error)) Outcome {
		calls++
		_, out, _ := c.Do(ctx, key, fill)
		return out
	}

	fillErr := func(context.Context) (any, error) { return nil, errors.New("backend down") }

	if out := do("bad", fillErr); out != Filled { // failed fill: still a miss
		t.Fatalf("failed fill outcome = %v, want miss", out)
	}
	if out := do("bad", fillErr); out != Filled { // errors are not cached: miss again
		t.Fatalf("second failed fill outcome = %v, want miss", out)
	}
	do("k", fillConst("v"))      // miss
	do("k", fillConst("v"))      // hit
	do("k", fillConst("v"))      // hit
	clk.advance(2 * time.Minute) // expire k within the stale window
	do("k", fillConst("v"))      // stale
	// A miss while another fill for its key runs is a miss of its own.
	enter := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	calls++
	go func() {
		defer wg.Done()
		c.Do(ctx, "slow", func(context.Context) (any, error) {
			close(enter)
			<-release
			return "v", nil
		})
	}()
	<-enter
	if out := do("slow", fillConst("v")); out != Filled {
		t.Fatalf("miss during another fill = %v, want miss", out)
	}
	close(release)
	wg.Wait()

	hits := reg.Counter(obs.MQCacheHits).Value()
	misses := reg.Counter(obs.MQCacheMisses).Value()
	stales := reg.Counter(obs.MQCacheStale).Value()
	if got := hits + misses + stales; got != int64(calls) {
		t.Fatalf("hits(%d)+misses(%d)+stales(%d) = %d, want %d calls", hits, misses, stales, got, calls)
	}
	if misses != 5 { // bad, bad again, k, slow twice
		t.Fatalf("misses = %d, want 5 (failed fills must count)", misses)
	}
	h := reg.Histogram(obs.MQCacheHitSeconds)
	if h.Count() != hits+stales {
		t.Fatalf("hit histogram observed %d serves, want %d", h.Count(), hits+stales)
	}
	if sum := h.Sum(); sum != 0 {
		t.Fatalf("hit histogram sum = %v under a frozen injected clock, want 0 (wall clock leaked in)", sum)
	}
}

// A stale-while-revalidate refresh racing LRU eviction of the same key:
// churn evicts the stale entry while its background refresh is mid
// flight. Under -race this locks the store/refresh interaction; the
// refresh must land (or lose) cleanly either way.
func TestSWRRefreshRacesLRUEviction(t *testing.T) {
	clk := newFakeClock()
	// One shard, two slots: churn evicts "hot" almost immediately.
	c := New(Config{Store: NewLRUStore(2, 1, nil), TTL: time.Minute, Now: clk.now})
	ctx := context.Background()

	for i := 0; i < 50; i++ {
		if _, _, err := c.Do(ctx, "hot", fillConst(i)); err != nil {
			t.Fatal(err)
		}
		clk.advance(2 * time.Minute) // expire "hot" into its stale window

		refreshing := make(chan struct{})
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		// Serve stale, triggering the background refresh.
		go func() {
			defer wg.Done()
			_, out, err := c.Do(ctx, "hot", func(context.Context) (any, error) {
				close(refreshing)
				<-done
				return "refreshed", nil
			})
			if err != nil || out != Stale {
				t.Errorf("iteration %d: stale Do = %v, %v", i, out, err)
			}
		}()
		// Concurrently churn the tiny store so "hot" is LRU-evicted while
		// the refresh is in flight.
		go func() {
			defer wg.Done()
			<-refreshing
			for j := 0; j < 8; j++ {
				c.Put(fmt.Sprintf("churn-%d", j), j)
			}
			close(done)
		}()
		wg.Wait()
		// The refresh goroutine is detached; wait until it has finished
		// (its put landed or lost to churn) before the next round, so
		// iterations don't bleed into each other. Its put comes before it
		// leaves c.refreshing, so a landed value is not enough: the next
		// round's stale serve would find this refresh still running,
		// start none, and leave its fill (and the churner) waiting.
		for deadline := time.Now().Add(5 * time.Second); ; {
			if _, running := c.refreshing.Load("hot"); !running {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("iteration %d: the refresh of \"hot\" is still running after 5 s", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// DoTTL with a panicking fill: the panic propagates to its caller, the
// fill's gate slot is released, and the cache stays usable for the key.
func TestCachePanickingFillDoesNotWedgeKey(t *testing.T) {
	c := New(Config{MaxInflight: 1})
	ctx := context.Background()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fill's panic was swallowed; want rethrow to the caller")
			}
		}()
		c.Do(ctx, "k", func(context.Context) (any, error) { panic("boom") })
	}()

	tctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	v, out, err := c.Do(tctx, "k", fillConst("ok"))
	if err != nil || out != Filled || v != "ok" {
		t.Fatalf("Do after panicking fill = %v, %v, %v; want ok, miss, nil", v, out, err)
	}
}

// A panicking SWR refresh counts as a refresh error and keeps serving
// stale; it must never crash the process.
func TestCachePanickingRefreshCountsError(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{TTL: time.Minute, Now: clk.now})
	ctx := context.Background()

	if _, _, err := c.Do(ctx, "k", fillConst("v1")); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute) // expired, within the stale window

	v, out, err := c.Do(ctx, "k", func(context.Context) (any, error) { panic("boom") })
	if err != nil || out != Stale || v != "v1" {
		t.Fatalf("stale Do = %v, %v, %v; want v1, stale, nil", v, out, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.metrics.Counter(obs.MQCacheRefreshErrors).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("panicking refresh never counted as a refresh error")
		}
		time.Sleep(time.Millisecond)
	}
}
