// Package resilient keeps the metasearcher useful when sources misbehave:
// a retrying client.Conn wrapper (exponential backoff with jitter, a
// shared retry budget, retries only on errors worth retrying) and a
// per-source circuit breaker the metasearch core consults before fan-out.
// ZBroker routes Z39.50 queries around unavailable servers; this package
// is the STARTS equivalent, built on the failure signals the client layer
// already surfaces.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// RetryPolicy configures the backoff schedule of a retrying Conn.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values below 2 disable retrying. Default 3.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, up to 2s, and jitters it by up to half. Default 100ms.
	BaseDelay time.Duration
	// Seed determines the jitter sequence, for reproducible tests.
	Seed int64
}

// The backoff schedule past BaseDelay: each retry multiplies the delay by
// multiplier up to maxDelay, and a delay d is drawn uniformly from
// [d·(1−jitter), d], so concurrent retries decorrelate.
const (
	maxDelay   = 2 * time.Second
	multiplier = 2
	jitter     = 0.5
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	return p
}

// backoff returns the delay before the retry-th retry (0-based), given a
// uniform draw u in [0, 1): the exponential delay jittered within
// [d·(1−jitter), d].
func (p RetryPolicy) backoff(retry int, u float64) time.Duration {
	d := float64(p.BaseDelay) * math.Pow(multiplier, float64(retry))
	if d > float64(maxDelay) {
		d = float64(maxDelay)
	}
	lo := d * (1 - jitter)
	return time.Duration(lo + u*(d-lo))
}

// Budget caps retry volume across many calls (and typically many conns):
// every fresh call deposits Ratio tokens, every retry withdraws one, and
// retries stop when the bucket is empty. This bounds retry amplification
// during a real outage — with Ratio 0.2, retries add at most ~20%
// traffic however hard the sources are failing.
type Budget struct {
	// Max caps the bucket (burst allowance). Default 10.
	Max float64
	// Ratio is the deposit per fresh call. Default 0.2.
	Ratio float64

	mu     sync.Mutex
	tokens float64
	init   sync.Once
}

// NewBudget returns a retry budget with the given burst cap and deposit
// ratio; zero values take the defaults.
func NewBudget(max, ratio float64) *Budget {
	return &Budget{Max: max, Ratio: ratio}
}

func (b *Budget) setup() {
	b.init.Do(func() {
		if b.Max == 0 {
			b.Max = 10
		}
		if b.Ratio == 0 {
			b.Ratio = 0.2
		}
		b.tokens = b.Max
	})
}

// deposit credits one fresh call.
func (b *Budget) deposit() {
	b.setup()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = math.Min(b.Max, b.tokens+b.Ratio)
}

// withdraw takes one retry token, reporting whether one was available.
func (b *Budget) withdraw() bool {
	b.setup()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// ErrBudgetExhausted marks calls abandoned because the retry budget ran
// dry.
var ErrBudgetExhausted = errors.New("resilient: retry budget exhausted")

// Retryable reports whether an error is worth retrying. Context
// cancellation and expiry are not (the caller gave up); permanent HTTP
// rejections (4xx other than 408 and 429) are not; everything else —
// network failures, 5xx, truncated or malformed bodies — is.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		return se.Temporary()
	}
	return true
}

// Conn wraps a client.Conn with retries under a RetryPolicy. The budget
// charges what actually hits the wire: one deposit per fresh call, one
// withdrawal per retry.
type Conn struct {
	inner  client.Conn
	policy RetryPolicy
	budget *Budget

	mu  sync.Mutex
	rnd *rand.Rand

	// sleep is the backoff waiter, replaceable in tests.
	sleep func(ctx context.Context, d time.Duration) error
}

var _ client.Conn = (*Conn)(nil)

// Wrap returns a retrying wrapper around inner. budget may be nil
// (unlimited retries within the policy) or shared across many conns.
func Wrap(inner client.Conn, policy RetryPolicy, budget *Budget) *Conn {
	return &Conn{
		inner:  inner,
		policy: policy.withDefaults(),
		budget: budget,
		rnd:    rand.New(rand.NewSource(policy.Seed)),
		sleep:  sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Conn) jitter() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rnd.Float64()
}

// backoff is everything between a failed attempt and the next one
// (attempt, 0-based, is the one about to run): it withdraws a budget
// token, draws the jittered delay, refuses to sleep past a deadline that
// dooms the retry, sleeps, and makes the retry observable — the
// context's current span (the per-source span core opened, when the call
// runs inside a traced search) gets a "retry" annotation and the
// context's metrics registry counts starts_retries_total{source}, both
// no-ops on a bare context. A non-nil return is why the retry must not
// happen.
func (c *Conn) backoff(ctx context.Context, what string, attempt int, last error) error {
	if c.budget != nil && !c.budget.withdraw() {
		return ErrBudgetExhausted
	}
	delay := c.policy.backoff(attempt-1, c.jitter())
	// Never sleep past a deadline that dooms the attempt: if the
	// remaining context budget is spent by the backoff itself, the
	// retry could only time out — fail fast with the last real error
	// instead of burning the caller's budget in a sleep.
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= delay {
		return fmt.Errorf("backoff %v exceeds remaining deadline: %w", delay, context.DeadlineExceeded)
	}
	if err := c.sleep(ctx, delay); err != nil {
		return fmt.Errorf("interrupted during backoff: %w", err)
	}
	obs.MetricsFrom(ctx).Counter(obs.L("starts_retries_total", "source", c.inner.SourceID())).Inc()
	obs.Annotate(ctx, "retry", fmt.Sprintf("%s attempt %d after: %v", what, attempt+1, last))
	return nil
}

// gaveUp words a call's final error: why retrying stopped, and the last
// error the source itself returned.
func (c *Conn) gaveUp(what string, why, last error) error {
	return fmt.Errorf("resilient: %s of %s: %w (last error: %w)", what, c.inner.SourceID(), why, last)
}

// exhausted words the error of a call that used all its attempts.
func (c *Conn) exhausted(what string, last error) error {
	return fmt.Errorf("resilient: %s of %s failed after %d attempts: %w",
		what, c.inner.SourceID(), c.policy.MaxAttempts, last)
}

// retryDo runs f up to MaxAttempts times, backing off between tries.
func retryDo[T any](c *Conn, ctx context.Context, what string, f func(context.Context) (T, error)) (T, error) {
	var zero T
	if c.budget != nil {
		c.budget.deposit()
	}
	var last error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			if why := c.backoff(ctx, what, attempt, last); why != nil {
				return zero, c.gaveUp(what, why, last)
			}
		}
		v, err := f(ctx)
		if err == nil {
			return v, nil
		}
		last = err
		if !Retryable(err) || ctx.Err() != nil {
			return zero, err
		}
	}
	return zero, c.exhausted(what, last)
}

// SourceID implements client.Conn.
func (c *Conn) SourceID() string { return c.inner.SourceID() }

// Metadata implements client.Conn.
func (c *Conn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	return retryDo(c, ctx, "metadata", c.inner.Metadata)
}

// Summary implements client.Conn.
func (c *Conn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	return retryDo(c, ctx, "summary", c.inner.Summary)
}

// Sample implements client.Conn.
func (c *Conn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	return retryDo(c, ctx, "sample", c.inner.Sample)
}

// Query implements client.Conn.
func (c *Conn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	return retryDo(c, ctx, "query", func(ctx context.Context) (*result.Results, error) {
		return c.inner.Query(ctx, q)
	})
}
