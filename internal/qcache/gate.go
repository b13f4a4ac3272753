package qcache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"starts/internal/obs"
)

// ErrShed is returned when the admission gate refused a slot: the queue
// timeout ran out with the gate still full. Callers detect it with
// errors.Is and turn it into a fast 503 (servers) or an immediate typed
// failure (clients) instead of queueing until collapse.
var ErrShed = errors.New("qcache: shed: too many queries in flight")

// Gate is a bounded admission gate: a semaphore of maxInflight slots
// with a queue timeout. An admission that finds the gate full waits in
// line for at most the timeout and is then shed, so overload costs each
// excess caller one bounded wait instead of an unbounded queue. A nil
// *Gate admits everything.
type Gate struct {
	sem     chan struct{}
	timeout time.Duration
	shed    *obs.Counter
	queued  *obs.Gauge

	mu      sync.Mutex
	sojourn time.Duration // EWMA of observed slot waits, feeds RetryAfter
}

// DefaultQueueTimeout bounds how long an admission waits for a slot
// when the gate's configured timeout is zero.
const DefaultQueueTimeout = 250 * time.Millisecond

// NewGate returns a gate admitting at most maxInflight concurrent
// holders, each waiting at most queueTimeout (DefaultQueueTimeout if
// zero) for a slot. Sheds count as obs.MQCacheShed and holders as the
// obs.MQCacheInflight gauge on reg; a nil reg records nothing.
// maxInflight <= 0 returns a nil gate, which admits everything.
func NewGate(maxInflight int, queueTimeout time.Duration, reg *obs.Registry) *Gate {
	if maxInflight <= 0 {
		return nil
	}
	if queueTimeout <= 0 {
		queueTimeout = DefaultQueueTimeout
	}
	return &Gate{
		sem:     make(chan struct{}, maxInflight),
		timeout: queueTimeout,
		shed:    reg.Counter(obs.MQCacheShed),
		queued:  reg.Gauge(obs.MQCacheInflight),
	}
}

// Acquire obtains a slot, blocking up to the queue timeout. It returns a
// release function on success; on a full gate it returns ErrShed
// (wrapped with the waited duration) within the timeout, and on context
// cancellation it returns ctx.Err(). A nil gate admits immediately.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	// A dead request must never hold a fill slot: check the context
	// before trying for a slot, and re-check after winning one — select
	// picks among ready cases at random, so both the fast path and the
	// queued path can otherwise grant a slot to an already-cancelled
	// context and burn fill capacity under exactly the overload the gate
	// exists to survive.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case g.sem <- struct{}{}:
		g.observe(0)
		return g.granted(ctx)
	default:
	}
	start := time.Now()
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case g.sem <- struct{}{}:
		g.observe(time.Since(start))
		return g.granted(ctx)
	case <-timer.C:
		g.observe(g.timeout)
		g.shed.Inc()
		return nil, fmt.Errorf("%w (waited %v)", ErrShed, g.timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// observe feeds one admission's slot wait into the sojourn EWMA (alpha
// 0.3, the smoothing the rest of the system uses).
func (g *Gate) observe(wait time.Duration) {
	g.mu.Lock()
	g.sojourn = time.Duration(0.3*float64(wait) + 0.7*float64(g.sojourn))
	g.mu.Unlock()
}

// granted finalizes a won slot, handing it straight back if the context
// ended while the select was deciding.
func (g *Gate) granted(ctx context.Context) (func(), error) {
	if err := ctx.Err(); err != nil {
		<-g.sem
		return nil, err
	}
	g.queued.Add(1)
	return g.release, nil
}

func (g *Gate) release() {
	g.queued.Add(-1)
	<-g.sem
}

// RetryAfter estimates, in whole seconds (at least 1, at most 30), how
// long a shed caller should wait before retrying: twice the smoothed
// slot wait, and never less than the queue timeout. Servers put it in
// the 503 Retry-After header so backoff advice tracks actual congestion
// instead of a constant.
func (g *Gate) RetryAfter() int {
	if g == nil {
		return 1
	}
	g.mu.Lock()
	est := max(2*g.sojourn, g.timeout)
	g.mu.Unlock()
	return min(max(int(math.Ceil(est.Seconds())), 1), 30)
}
