package resilient

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"starts/internal/obs"
)

// TestRetryInstrumentation checks that each retry is visible on the
// context's span (a "retry" annotation) and registry
// (starts_retries_total), and that a bare context stays a no-op.
func TestRetryInstrumentation(t *testing.T) {
	inner := &flakyConn{id: "S", err: errors.New("transient"), failN: 2}
	c, _ := fastWrap(inner, RetryPolicy{MaxAttempts: 3}, nil)

	reg := obs.NewRegistry()
	tr := obs.NewTrace(obs.Title("q"))
	sp := tr.StartSpan("query S")
	ctx := obs.WithMetrics(obs.WithSpan(context.Background(), sp), reg)
	if _, err := c.Query(ctx, nil); err != nil {
		t.Fatal(err)
	}
	sp.End(nil)

	if got := reg.Counter(obs.L("starts_retries_total", "source", "S")).Value(); got != 2 {
		t.Errorf("retries_total = %d, want 2", got)
	}
	retries := 0
	for _, a := range tr.Snapshot().Spans[0].Attrs {
		if a.Key == "retry" {
			retries++
			if !strings.Contains(a.Value, "transient") {
				t.Errorf("retry annotation = %q", a.Value)
			}
		}
	}
	if retries != 2 {
		t.Errorf("retry annotations = %d, want 2", retries)
	}

	// Outside a traced search nothing is recorded and nothing panics
	// (the conn is past its failures, so this succeeds first try).
	if _, err := c.Query(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerTransitionObservers checks the transition counters across
// a full open → half-open → closed cycle: each state entered once.
func TestBreakerTransitionObservers(t *testing.T) {
	reg := obs.NewRegistry()
	clock := &breakerClock{now: time.Date(1997, 5, 1, 0, 0, 0, 0, time.UTC)}
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 2, Cooldown: time.Minute, Now: clock.Now,
		Metrics: reg,
	})
	count := func(to string) int64 {
		return reg.Counter(obs.L("starts_breaker_transitions_total", "source", "S", "to", to)).Value()
	}

	b.Record("S", errDown)
	b.Record("S", errDown) // trips: closed -> open
	if got := count("open"); got != 1 {
		t.Fatalf("transitions to open = %d after tripping, want 1", got)
	}
	clock.advance(2 * time.Minute)
	if !b.Allow("S") { // cooldown elapsed: open -> half-open, admits probe
		t.Fatal("post-cooldown probe refused")
	}
	if got := count("half-open"); got != 1 {
		t.Fatalf("transitions to half-open = %d after the probe's admission, want 1", got)
	}
	b.Record("S", nil) // probe succeeds: half-open -> closed

	for to, n := range map[string]int64{"open": 1, "half-open": 1, "closed": 1} {
		if got := count(to); got != n {
			t.Errorf("transitions to %s = %d, want %d", to, got, n)
		}
	}
}
