package resilient

import (
	"context"
	"errors"
	"testing"
	"time"
)

// breakerClock is a manual clock for breaker tests.
type breakerClock struct{ now time.Time }

func (c *breakerClock) Now() time.Time          { return c.now }
func (c *breakerClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *breakerClock) {
	clock := &breakerClock{now: time.Date(1997, 5, 1, 0, 0, 0, 0, time.UTC)}
	b := NewBreaker(BreakerConfig{
		FailureThreshold: threshold, Cooldown: cooldown, Now: clock.Now,
	})
	return b, clock
}

var errDown = errors.New("source down")

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		b.Record("S", errDown)
		if !b.Allow("S") {
			t.Fatalf("circuit opened after %d failures, threshold 3", i+1)
		}
	}
	b.Record("S", errDown)
	if b.State("S") != StateOpen {
		t.Fatalf("state = %v after 3 failures, want open", b.State("S"))
	}
	if b.Allow("S") {
		t.Error("open circuit admitted traffic before cooldown")
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	b.Record("S", errDown)
	b.Record("S", errDown)
	b.Record("S", nil) // success wipes the streak
	b.Record("S", errDown)
	b.Record("S", errDown)
	if b.State("S") != StateClosed {
		t.Errorf("state = %v, want closed (no 3-failure streak)", b.State("S"))
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	b, clock := newTestBreaker(2, time.Minute)
	b.Record("S", errDown)
	b.Record("S", errDown)
	if b.Allow("S") {
		t.Fatal("open circuit admitted traffic")
	}
	clock.advance(61 * time.Second)
	// Cooldown elapsed: exactly one probe goes through.
	if !b.Allow("S") {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.State("S") != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State("S"))
	}
	if b.Allow("S") {
		t.Error("second concurrent probe admitted")
	}
	b.Record("S", nil)
	if b.State("S") != StateClosed {
		t.Errorf("state = %v after successful probe, want closed", b.State("S"))
	}
	if !b.Allow("S") {
		t.Error("recovered circuit refuses traffic")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clock := newTestBreaker(2, time.Minute)
	b.Record("S", errDown)
	b.Record("S", errDown)
	clock.advance(61 * time.Second)
	if !b.Allow("S") {
		t.Fatal("probe refused")
	}
	b.Record("S", errDown)
	if b.State("S") != StateOpen {
		t.Fatalf("state = %v after failed probe, want open", b.State("S"))
	}
	// The cooldown restarted: still shedding.
	clock.advance(30 * time.Second)
	if b.Allow("S") {
		t.Error("re-opened circuit admitted traffic mid-cooldown")
	}
	clock.advance(31 * time.Second)
	if !b.Allow("S") {
		t.Error("second probe refused after full cooldown")
	}
}

func TestBreakerReleaseFreesHalfOpenProbe(t *testing.T) {
	b, clock := newTestBreaker(1, time.Minute)
	b.Release("S") // no circuit yet: no-op
	b.Record("S", errDown)
	clock.advance(61 * time.Second)
	if !b.Allow("S") {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.Allow("S") {
		t.Fatal("second probe admitted while the first is in flight")
	}
	// The probe never reached the wire (shed at the dispatch layer, or it
	// coalesced onto another batch): without a Release the circuit would
	// refuse all traffic until restart.
	b.Release("S")
	if b.State("S") != StateHalfOpen {
		t.Fatalf("state = %v after release, want half-open", b.State("S"))
	}
	if !b.Allow("S") {
		t.Fatal("Release did not free the probe slot")
	}
	b.Record("S", nil)
	if b.State("S") != StateClosed {
		t.Errorf("state = %v after successful probe, want closed", b.State("S"))
	}
}

func TestBreakerCancelledProbeFreesSlot(t *testing.T) {
	b, clock := newTestBreaker(1, time.Minute)
	b.Record("S", errDown)
	clock.advance(61 * time.Second)
	if !b.Allow("S") {
		t.Fatal("cooldown elapsed but probe refused")
	}
	// The probe's caller gave up: that judges the caller, not the source,
	// but the slot must come back or the circuit is stuck half-open.
	b.Record("S", context.Canceled)
	if b.State("S") != StateHalfOpen {
		t.Fatalf("state = %v, want half-open (cancellation is not an outcome)", b.State("S"))
	}
	if !b.Allow("S") {
		t.Error("cancelled probe left the circuit stuck half-open")
	}
}

func TestBreakerIgnoresCancellation(t *testing.T) {
	b, _ := newTestBreaker(1, time.Minute)
	b.Record("S", context.Canceled)
	if b.State("S") != StateClosed {
		t.Error("caller cancellation tripped the breaker")
	}
	// Deadline expiry IS a source fault (it timed out).
	b.Record("S", context.DeadlineExceeded)
	if b.State("S") != StateOpen {
		t.Error("timeout did not count against the source")
	}
}

func TestBreakerIsolatesSources(t *testing.T) {
	b, _ := newTestBreaker(1, time.Minute)
	b.Record("bad", errDown)
	if !b.Allow("good") || b.Allow("bad") {
		t.Error("breaker state leaked across sources")
	}
	snap := b.Snapshot()
	if len(snap) != 2 || snap[0].ID != "bad" || snap[0].State != StateOpen ||
		snap[1].ID != "good" || snap[1].State != StateClosed {
		t.Errorf("Snapshot = %+v", snap)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateClosed: "closed", StateOpen: "open", StateHalfOpen: "half-open", State(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestBreakerOpenFastDrainSignal(t *testing.T) {
	b, clock := newTestBreaker(1, time.Minute)
	if b.Open("S") {
		t.Error("closed circuit reported open")
	}
	b.Record("S", errDown)
	if !b.Open("S") {
		t.Error("tripped circuit not reported open")
	}
	clock.advance(2 * time.Minute)
	// Open is read-only: polling it any number of times after cooldown
	// must not consume the single half-open probe slot.
	for i := 0; i < 5; i++ {
		_ = b.Open("S")
	}
	if !b.Allow("S") {
		t.Fatal("Open consumed the half-open probe slot")
	}
	if got := b.State("S"); got != StateHalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", got)
	}
	// The admitted probe must never be fast-drained by the Refuse hook.
	if b.Open("S") {
		t.Error("half-open circuit reported open; the probe would be refused")
	}
}
