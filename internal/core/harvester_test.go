package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/meta"
	"starts/internal/source"
)

// harvestFixture is one countingConn source with a settable clock.
func harvestFixture(t *testing.T, expires time.Duration) (*Metasearcher, *countingConn, *testClock) {
	t.Helper()
	clk := newTestClock()
	ms := New(Options{Now: clk.now})
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New("S", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&index.Document{Linkage: "http://s/1", Title: "doc", Body: "words"}); err != nil {
		t.Fatal(err)
	}
	if expires > 0 {
		s.Expires = clk.now().Add(expires)
	}
	c := &countingConn{Conn: client.NewLocalConn(s, nil)}
	ms.Add(c)
	return ms, c, clk
}

// TestHarvestDueLead: a scheduled sweep re-pulls a source whose
// DateExpires falls within the lead window, before it actually expires —
// and leaves sources with plenty of life alone.
func TestHarvestDueLead(t *testing.T) {
	ms, c, clk := harvestFixture(t, time.Hour)
	ctx := context.Background()

	// First sweep: the entry is missing, so it is due.
	if errs := ms.HarvestDue(ctx, 10*time.Minute); len(errs) != 1 {
		t.Fatalf("initial sweep harvested %d sources, want 1", len(errs))
	}
	if got := c.metaCalls.Load(); got != 1 {
		t.Fatalf("metadata fetched %d times, want 1", got)
	}

	// Expiry is an hour out, lead only 10 minutes: not due.
	if errs := ms.HarvestDue(ctx, 10*time.Minute); len(errs) != 0 {
		t.Fatalf("sweep refreshed %d sources an hour before expiry", len(errs))
	}

	// 55 minutes later the entry expires within the lead: due again.
	clk.advance(55 * time.Minute)
	if errs := ms.HarvestDue(ctx, 10*time.Minute); len(errs) != 1 {
		t.Fatalf("sweep near expiry refreshed %d sources, want 1", len(errs))
	}
	if got := c.metaCalls.Load(); got != 2 {
		t.Fatalf("metadata fetched %d times after near-expiry sweep, want 2", got)
	}
}

// TestHarvestDueNoExpiry: a source that declares no DateExpires is
// pulled once and never again by the scheduler.
func TestHarvestDueNoExpiry(t *testing.T) {
	ms, c, clk := harvestFixture(t, 0)
	ctx := context.Background()
	ms.HarvestDue(ctx, time.Minute)
	clk.advance(100 * 24 * time.Hour)
	ms.HarvestDue(ctx, time.Minute)
	if got := c.metaCalls.Load(); got != 1 {
		t.Fatalf("metadata fetched %d times for a non-expiring source, want 1", got)
	}
}

// flakyHarvestConn fails metadata fetches while broken is set.
type flakyHarvestConn struct {
	client.Conn
	broken bool
}

func (f *flakyHarvestConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	if f.broken {
		return nil, errors.New("metadata service down")
	}
	return f.Conn.Metadata(ctx)
}

// TestHarvestDueRetriesStale: an entry kept past a failed refresh
// (stale-if-error) stays due every sweep until a refresh succeeds.
func TestHarvestDueRetriesStale(t *testing.T) {
	clk := newTestClock()
	ms := New(Options{Now: clk.now})
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New("S", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&index.Document{Linkage: "http://s/1", Title: "doc", Body: "words"}); err != nil {
		t.Fatal(err)
	}
	s.Expires = clk.now().Add(time.Minute)
	flaky := &flakyHarvestConn{Conn: client.NewLocalConn(s, nil)}
	ms.Add(flaky)
	ctx := context.Background()

	if errs := ms.HarvestDue(ctx, 0); errs["S"] != nil {
		t.Fatalf("initial harvest failed: %v", errs)
	}
	// The refresh at expiry fails; the entry survives marked stale.
	clk.advance(2 * time.Minute)
	flaky.broken = true
	if errs := ms.HarvestDue(ctx, 0); errs["S"] == nil {
		t.Fatal("broken refresh reported no error")
	}
	if n := ms.Metrics().Counter("starts_harvester_errors_total").Value(); n != 1 {
		t.Fatalf("harvester errors = %d, want 1", n)
	}
	// Stale entries stay due even though their DateExpires was renewed
	// into the past: the next sweep retries...
	if errs := ms.HarvestDue(ctx, 0); errs["S"] == nil {
		t.Fatal("stale entry was not retried")
	}
	// ...and a recovered source, publishing a renewed DateExpires,
	// clears the staleness.
	flaky.broken = false
	s.Expires = clk.now().Add(time.Hour)
	if errs := ms.HarvestDue(ctx, 0); errs["S"] != nil {
		t.Fatalf("recovery harvest failed: %v", errs)
	}
	if errs := ms.HarvestDue(ctx, 0); len(errs) != 0 {
		t.Fatalf("recovered fresh entry still due: %v", errs)
	}
}

// TestStartHarvester: the background ticker sweeps until its context
// ends — the paper's "extract metadata and content summaries from the
// sources periodically" — harvesting the entry without an expiry exactly
// once, re-pulling the always-expired one on every sweep, and counting
// its ticks.
func TestStartHarvester(t *testing.T) {
	ms, c, _ := harvestFixture(t, 0)
	expired := &countingConn{Conn: &expiringConn{failingConn{id: "E"}}}
	ms.Add(expired)
	ctx, cancel := context.WithCancel(context.Background())
	done := ms.StartHarvester(ctx, 2*time.Millisecond, 0)

	ticks := ms.Metrics().Counter("starts_harvester_ticks_total")
	deadline := time.Now().Add(5 * time.Second)
	for ticks.Value() < 3 || expired.metaCalls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("harvester ticked %d times and re-pulled the expired source %d times, want 3 of each",
				ticks.Value(), expired.metaCalls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("harvester did not stop")
	}
	if got := c.metaCalls.Load(); got != 1 {
		t.Fatalf("metadata fetched %d times across %d ticks, want 1", got, ticks.Value())
	}
}

// expiringConn serves metadata that is always already expired, forcing a
// refresh on every harvest.
type expiringConn struct{ failingConn }

func (e *expiringConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	m, err := e.failingConn.Metadata(ctx)
	if err != nil {
		return nil, err
	}
	m.DateExpires = time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)
	return m, nil
}
