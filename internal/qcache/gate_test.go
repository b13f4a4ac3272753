package qcache

import (
	"context"
	"errors"
	"testing"
	"time"

	"starts/internal/obs"
)

// An already-cancelled context must never be granted a slot. The old
// fast path selected between the semaphore and nothing, and the queued
// path selected among semaphore/timer/ctx.Done() — select picks among
// ready cases at random, so a cancelled context could still win a slot
// and burn fill capacity.
func TestGateRefusesCancelledContext(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(4, time.Second, reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// The select race only misbehaves a fraction of the time; iterate so
	// a regression cannot pass by luck.
	for i := 0; i < 200; i++ {
		release, err := g.Acquire(ctx)
		if err == nil {
			release()
			t.Fatalf("iteration %d: cancelled context acquired a slot", i)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v; want context.Canceled", i, err)
		}
	}
	if got := reg.Gauge(obs.MQCacheInflight).Value(); got != 0 {
		t.Fatalf("inflight gauge = %d after refused admissions, want 0", got)
	}
	// The gate must still have all its slots: a healthy caller fills it
	// to capacity without shedding.
	var releases []func()
	for i := 0; i < 4; i++ {
		r, err := g.Acquire(context.Background())
		if err != nil {
			t.Fatalf("healthy Acquire %d failed: %v (slot leaked to a cancelled context?)", i, err)
		}
		releases = append(releases, r)
	}
	for _, r := range releases {
		r()
	}
}

// A context cancelled while queueing gets ctx.Err(), not a slot and not
// an ErrShed.
func TestGateCancelledWhileQueued(t *testing.T) {
	g := NewGate(1, time.Minute, obs.NewRegistry())
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the acquirer reach the queue
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued Acquire err = %v; want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued Acquire did not return after cancellation")
	}
}

// TestGateRetryAfterTracksCongestion pins that RetryAfter derives from
// live gate state: it grows with the smoothed slot wait and is clamped
// to [1, 30] seconds. A nil gate answers a safe constant.
func TestGateRetryAfterTracksCongestion(t *testing.T) {
	g := NewGate(1, 500*time.Millisecond, obs.NewRegistry())
	if got := g.RetryAfter(); got != 1 {
		t.Errorf("idle RetryAfter = %d, want 1 (ceil of the queue timeout)", got)
	}
	for i := 0; i < 40; i++ {
		g.observe(8 * time.Second)
	}
	got := g.RetryAfter()
	if got < 10 || got > 30 {
		t.Errorf("congested RetryAfter = %d, want within [10, 30]", got)
	}
	var nilGate *Gate
	if nilGate.RetryAfter() != 1 {
		t.Error("nil gate should answer RetryAfter 1")
	}
}

// TestGatePlainTimeoutUnchanged pins the fixed-timeout contract of
// NewGate: however long earlier admissions waited, a free slot admits
// at once, and a full gate sheds only after the queue timeout.
func TestGatePlainTimeoutUnchanged(t *testing.T) {
	g := NewGate(1, 50*time.Millisecond, obs.NewRegistry())
	for i := 0; i < 20; i++ {
		g.observe(time.Second)
	}
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer release()
	if _, err := g.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("full-gate acquire err = %v, want ErrShed after the timeout", err)
	}
}
