package core

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"starts/internal/qcache"
)

// refreshFleet is cachedFleet with a shared frozen clock (freshness
// tests' testClock) driving both the cache's expiry and the
// metasearcher's freshness decisions.
func refreshFleet(t *testing.T, ttl time.Duration) (*Metasearcher, *blockingConn, *testClock) {
	t.Helper()
	clk := newTestClock()
	ms, conn, _ := cachedFleet(t, qcache.Config{TTL: ttl, Now: clk.now})
	ms.opts.Now = clk.now
	return ms, conn, clk
}

// waitForQueries polls until the conn has served n wire fan-outs —
// needed because proactive refreshes run asynchronously.
func waitForQueries(t *testing.T, conn *blockingConn, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for conn.queries.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := conn.queries.Load(); got < n {
		t.Fatalf("conn served %d queries, want %d", got, n)
	}
}

// TestRefreshAhead pins proactive refresh: a recorded hot entry is
// re-filled only inside its expiry lead window, and the refresh pushes
// the expiry out so the next sweep leaves it alone.
func TestRefreshAhead(t *testing.T) {
	ms, conn, clk := refreshFleet(t, time.Minute)
	defer ms.Close()
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	if _, err := ms.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	waitForQueries(t, conn, 1)

	// Fresh entry, expiry a full minute out: nothing within a 10s lead.
	if n := ms.RefreshAhead(10 * time.Second); n != 0 {
		t.Errorf("refreshed %d entries while far from expiry, want 0", n)
	}

	// 55s in, the entry expires within the lead: exactly one refresh.
	clk.advance(55 * time.Second)
	if n := ms.RefreshAhead(10 * time.Second); n != 1 {
		t.Errorf("refreshed %d entries inside the lead window, want 1", n)
	}
	waitForQueries(t, conn, 2)
	// The conn has answered; the refreshed entry is stored a moment later.
	key := ms.cacheKey(q, ms.opts)
	for deadline := time.Now().Add(2 * time.Second); ms.opts.Cache.ExpiresWithin(key, 10*time.Second) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	// The refill reset the clock: the same sweep now finds nothing.
	if n := ms.RefreshAhead(10 * time.Second); n != 0 {
		t.Errorf("refreshed %d entries after the refill, want 0", n)
	}

	// And the refreshed answer serves without another fan-out.
	if _, err := ms.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if got := conn.queries.Load(); got != 2 {
		t.Errorf("post-refresh search hit the wire (%d fan-outs), want cache hit", got)
	}
}

// TestRefreshAheadNeedsCache: without a cache the sweep is a no-op.
func TestRefreshAheadNeedsCache(t *testing.T) {
	ms, _ := fleet(t)
	defer ms.Close()
	if n := ms.RefreshAhead(time.Minute); n != 0 {
		t.Errorf("cacheless refresh = %d, want 0", n)
	}
}

// TestStartWorkloadSaver pins the periodic snapshot satellite: the saver
// writes the workload on its ticker and once more on shutdown, and the
// file round-trips through LoadWorkloadFile.
func TestStartWorkloadSaver(t *testing.T) {
	ms, _, _ := refreshFleet(t, time.Minute)
	defer ms.Close()
	if _, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "workload.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	done := ms.StartWorkloadSaver(ctx, path, 10*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("saver did not stop")
	}

	entries, err := qcache.LoadWorkloadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("saved %d workload entries, want 1", len(entries))
	}
	if entries[0].Key == "" {
		t.Error("saved entry has no key")
	}
}

// TestStartRefresher pins the background ticker: it sweeps on its
// interval and stops when its context ends.
func TestStartRefresher(t *testing.T) {
	ms, conn, clk := refreshFleet(t, time.Minute)
	defer ms.Close()
	if _, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`)); err != nil {
		t.Fatal(err)
	}
	waitForQueries(t, conn, 1)
	clk.advance(55 * time.Second) // inside the default lead (2×interval)

	ctx, cancel := context.WithCancel(context.Background())
	done := ms.StartRefresher(ctx, 10*time.Millisecond, 10*time.Second)
	waitForQueries(t, conn, 2) // a sweep refreshed the hot entry
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("refresher did not stop")
	}
}

// TestDebugHandler pins the three debug endpoints a long-running
// metasearcher exposes.
func TestDebugHandler(t *testing.T) {
	ms, _, _ := refreshFleet(t, time.Minute)
	defer ms.Close()
	if _, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ms.DebugHandler())
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, sb.String()
	}

	if resp, body := get("/metrics"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "starts_dispatch_submitted_total") {
		t.Errorf("/metrics: status %d, dispatch counters missing:\n%.400s", resp.StatusCode, body)
	}
	if resp, body := get("/debug/workload"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(resp.Header.Get("Content-Type"), "x-ndjson") ||
		!strings.Contains(body, `"key"`) {
		t.Errorf("/debug/workload: status %d content-type %q body %.200q",
			resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	if resp, body := get("/debug/dispatch"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"source": "cs"`) {
		t.Errorf("/debug/dispatch: status %d body %.200s", resp.StatusCode, body)
	}
}
