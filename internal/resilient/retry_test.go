package resilient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// flakyConn fails its first failN calls to each method, then succeeds.
type flakyConn struct {
	id    string
	err   error
	failN int64
	calls atomic.Int64
}

func (f *flakyConn) SourceID() string { return f.id }

func (f *flakyConn) attempt() error {
	if f.calls.Add(1) <= f.failN {
		return f.err
	}
	return nil
}

func (f *flakyConn) Metadata(context.Context) (*meta.SourceMeta, error) {
	if err := f.attempt(); err != nil {
		return nil, err
	}
	return &meta.SourceMeta{SourceID: f.id}, nil
}

func (f *flakyConn) Summary(context.Context) (*meta.ContentSummary, error) {
	if err := f.attempt(); err != nil {
		return nil, err
	}
	return &meta.ContentSummary{NumDocs: 1}, nil
}

func (f *flakyConn) Sample(context.Context) ([]*source.SampleEntry, error) {
	if err := f.attempt(); err != nil {
		return nil, err
	}
	return nil, nil
}

func (f *flakyConn) Query(context.Context, *query.Query) (*result.Results, error) {
	if err := f.attempt(); err != nil {
		return nil, err
	}
	return &result.Results{}, nil
}

// fastWrap returns a retrying conn whose backoff sleeps are recorded, not
// slept.
func fastWrap(inner client.Conn, p RetryPolicy, b *Budget) (*Conn, *[]time.Duration) {
	c := Wrap(inner, p, b)
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	return c, &slept
}

func TestBackoffJitterBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond}.withDefaults()
	for retry := 0; retry < 8; retry++ {
		full := math.Min(float64(p.BaseDelay)*math.Pow(2, float64(retry)), float64(2*time.Second))
		lo, hi := time.Duration(full*0.5), time.Duration(full)
		for _, u := range []float64{0, 0.25, 0.5, 0.99} {
			d := p.backoff(retry, u)
			if d < lo || d > hi {
				t.Errorf("backoff(retry=%d, u=%.2f) = %v, want within [%v, %v]", retry, u, d, lo, hi)
			}
		}
	}
	// The cap must bind: deep retries never exceed two seconds.
	if d := p.backoff(20, 1); d != 2*time.Second {
		t.Errorf("backoff(20, 1) = %v, want the 2s cap", d)
	}
}

func TestBackoffGrowsExponentially(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond}.withDefaults()
	// With u=1 the jitter vanishes and the schedule is exactly geometric.
	for retry := 1; retry < 5; retry++ {
		if prev, cur := p.backoff(retry-1, 1), p.backoff(retry, 1); cur != 2*prev {
			t.Errorf("backoff not doubling: %v -> %v", prev, cur)
		}
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	inner := &flakyConn{id: "S", err: errors.New("transient"), failN: 2}
	c, slept := fastWrap(inner, RetryPolicy{MaxAttempts: 3, Seed: 1}, nil)
	md, err := c.Metadata(context.Background())
	if err != nil || md.SourceID != "S" {
		t.Fatalf("Metadata = %v, %v", md, err)
	}
	if inner.calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", inner.calls.Load())
	}
	if len(*slept) != 2 {
		t.Errorf("backoffs = %d, want 2", len(*slept))
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	inner := &flakyConn{id: "S", err: errors.New("persistent"), failN: 100}
	c, _ := fastWrap(inner, RetryPolicy{MaxAttempts: 3, Seed: 1}, nil)
	_, err := c.Summary(context.Background())
	if err == nil || !errors.Is(err, inner.err) {
		t.Fatalf("err = %v, want wrapped persistent error", err)
	}
	if inner.calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", inner.calls.Load())
	}
}

func TestRetrySkipsPermanentErrors(t *testing.T) {
	notFound := &client.StatusError{StatusCode: 404, Status: "404 Not Found"}
	inner := &flakyConn{id: "S", err: fmt.Errorf("wrapped: %w", notFound), failN: 100}
	c, _ := fastWrap(inner, RetryPolicy{MaxAttempts: 5, Seed: 1}, nil)
	_, err := c.Metadata(context.Background())
	if err == nil {
		t.Fatal("want error")
	}
	if inner.calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (404 is permanent)", inner.calls.Load())
	}
}

func TestRetryRetries5xx(t *testing.T) {
	unavailable := &client.StatusError{StatusCode: 503, Status: "503 Service Unavailable"}
	inner := &flakyConn{id: "S", err: unavailable, failN: 1}
	c, _ := fastWrap(inner, RetryPolicy{MaxAttempts: 3, Seed: 1}, nil)
	if _, err := c.Metadata(context.Background()); err != nil {
		t.Fatalf("retryable 503 not retried: %v", err)
	}
	if inner.calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", inner.calls.Load())
	}
}

func TestRetryRespectsContext(t *testing.T) {
	inner := &flakyConn{id: "S", err: errors.New("transient"), failN: 100}
	c := Wrap(inner, RetryPolicy{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond, Seed: 1}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(ctx, query.New())
	if err == nil {
		t.Fatal("want error")
	}
	if time.Since(start) > time.Second {
		t.Error("retries outlived the context")
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("querying: %w", context.Canceled), false},
		{errors.New("connection refused"), true},
		{&client.StatusError{StatusCode: 500}, true},
		{&client.StatusError{StatusCode: 429}, true},
		{&client.StatusError{StatusCode: 400}, false},
		{fmt.Errorf("wrapped: %w", &client.StatusError{StatusCode: 403}), false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryBudgetBoundsAmplification(t *testing.T) {
	b := NewBudget(2, 0.0001) // tiny bucket, negligible refill
	inner := &flakyConn{id: "S", err: errors.New("transient"), failN: 1000}
	c, _ := fastWrap(inner, RetryPolicy{MaxAttempts: 4, Seed: 1}, b)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		_, _ = c.Metadata(ctx)
	}
	// 5 calls × 3 allowed retries each = 15 without a budget; the bucket
	// only held 2 tokens.
	if calls := inner.calls.Load(); calls > 8 {
		t.Errorf("budget did not bound retries: %d inner calls", calls)
	}
	_, err := c.Metadata(ctx)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v, want budget exhaustion", err)
	}
}

func TestRetryBudgetRefills(t *testing.T) {
	// A one-token bucket with a full deposit per call funds one retry on
	// every call: fresh traffic keeps earning retries.
	b := NewBudget(1, 1)
	inner := &flakyConn{id: "S", err: errors.New("transient"), failN: 1000}
	c, _ := fastWrap(inner, RetryPolicy{MaxAttempts: 2, Seed: 1}, b)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Metadata(ctx); errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("call %d hit budget exhaustion despite refills", i)
		}
	}
	if calls := inner.calls.Load(); calls != 6 {
		t.Errorf("inner calls = %d, want 6 (every call got its retry)", calls)
	}
}

// TestRetryBackoffClampedToDeadline pins the deadline clamp: when the
// next backoff would sleep past the context deadline, the retry loop
// fails fast — no sleep, last real error wrapped — instead of burning
// the caller's remaining budget on a doomed attempt.
func TestRetryBackoffClampedToDeadline(t *testing.T) {
	inner := &flakyConn{id: "S", err: errors.New("transient"), failN: 99}
	c, slept := fastWrap(inner, RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Second, // at least half of it is far beyond the context's budget
		Seed:        1,
	}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Metadata(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded marker", err)
	}
	if !errors.Is(err, inner.err) {
		t.Fatalf("err = %v, must wrap the last real error", err)
	}
	if len(*slept) != 0 {
		t.Errorf("slept %v; a doomed backoff must not sleep at all", *slept)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Errorf("took %v; the clamp exists to return well before the deadline", elapsed)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner calls = %d, want 1 (no retry after the clamp)", got)
	}
}

// TestRetryBackoffFitsDeadline pins the other side: a backoff that fits
// the remaining budget still sleeps and retries as before.
func TestRetryBackoffFitsDeadline(t *testing.T) {
	inner := &flakyConn{id: "S", err: errors.New("transient"), failN: 1}
	c, slept := fastWrap(inner, RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Seed:        1,
	}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Metadata(ctx); err != nil {
		t.Fatalf("retry under a roomy deadline failed: %v", err)
	}
	if len(*slept) != 1 {
		t.Errorf("slept %v, want exactly one backoff", *slept)
	}
}
