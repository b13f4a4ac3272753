package qcache

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"starts/internal/obs"
)

// A panicking leader must (1) rethrow on the leader itself, (2) hand
// joiners the panic as the call's error, and (3) leave the key usable —
// the old code left the dead call registered with done never closed, so
// every later caller for the key blocked forever.
func TestFlightLeaderPanicRethrownAndKeyNotWedged(t *testing.T) {
	g := newFlightGroup()
	ctx := context.Background()

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("leader's panic was swallowed; want rethrow")
			}
			if r != "boom" {
				t.Fatalf("leader recovered %v; want the original panic value", r)
			}
		}()
		g.Do(ctx, "k", func() (any, error) { panic("boom") }, nil)
	}()

	// The key must not be wedged: a fresh call for it runs immediately.
	// The timeout context turns a wedged key into a test failure instead
	// of a hang.
	tctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	v, shared, err := g.Do(tctx, "k", func() (any, error) { return "ok", nil }, nil)
	if err != nil || shared || v != "ok" {
		t.Fatalf("Do after panic = %v, %v, %v; want ok, leader, nil", v, shared, err)
	}
}

func TestFlightJoinerSeesLeaderPanicAsError(t *testing.T) {
	g := newFlightGroup()
	ctx := context.Background()

	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }() // the leader takes the rethrow
		g.Do(ctx, "k", func() (any, error) {
			close(leaderIn)
			<-release
			panic("boom")
		}, nil)
	}()

	<-leaderIn
	joined := make(chan struct{})
	var jerr error
	var jshared bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, jshared, jerr = g.Do(ctx, "k", func() (any, error) { return "never", nil }, func() { close(joined) })
	}()
	<-joined
	close(release)
	wg.Wait()

	if !jshared {
		t.Fatal("second caller did not join the leader's flight")
	}
	if jerr == nil || !strings.Contains(jerr.Error(), "panicked") {
		t.Fatalf("joiner error = %v; want the leader's panic as an error", jerr)
	}
}

// A panicking Solo (background SWR refresh) must neither crash the
// process nor wedge the key.
func TestFlightSoloPanicSwallowedAndKeyNotWedged(t *testing.T) {
	g := newFlightGroup()
	ran := make(chan struct{})
	g.Solo("k", func() (any, error) {
		close(ran)
		panic("boom")
	})
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Solo's fn never ran")
	}
	// The call stays registered until run's deferred cleanup, after the
	// panic unwinds; a Do arriving before that joins the dying flight and
	// gets the panic as its error, as Do promises. Once the key has left
	// the map, the next Do must lead.
	deadline := time.Now().Add(5 * time.Second)
	for inFlight(g, "k") {
		if time.Now().After(deadline) {
			t.Fatal("the key is still registered 5 s after Solo's fn panicked")
		}
		time.Sleep(time.Millisecond)
	}

	tctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, shared, err := g.Do(tctx, "k", func() (any, error) { return "ok", nil }, nil)
	if err != nil || shared || v != "ok" {
		t.Fatalf("Do after Solo panic = %v, %v, %v; want ok, leader, nil", v, shared, err)
	}
}

// inFlight reports whether a call for key is registered.
func inFlight(g *flightGroup, key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}

// DoTTL with a panicking fill: the caller-facing cache behavior. The
// leader's panic propagates to its caller; the cache stays usable for
// the key and the miss is still counted.
func TestCachePanickingFillDoesNotWedgeKey(t *testing.T) {
	c := New(Config{})
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
