package dispatch

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"starts/internal/obs"
)

// minRunSamples is how many recent run durations the deadline check
// needs before it trusts its service-time estimate; below it every
// submission is admitted.
const minRunSamples = 8

// runRingSize bounds the recent-run ring: large enough to smooth jitter,
// small enough that a recovered source's faster runs dominate the
// estimate within a few calls.
const runRingSize = 32

// queue is one source's scheduling state, all of it guarded by mu, so
// admission, pickup and abandonment each see and change it in one step:
// a submission joins a pending batch, starts a worker, waits in the FIFO
// or is shed; a worker that finishes a batch takes the next one or
// exits. The only goroutines are workers that have work.
//
// Invariant: batches wait only while every allowed worker is busy
// (len(waiting) > 0 implies running >= lim.Concurrency). submit and a
// finishing worker preserve it, which is why a submission that finds a
// free worker slot may start at once without overtaking anybody.
type queue struct {
	d      *Dispatcher
	source string
	lim    Limits // fixed at creation

	mu      sync.Mutex
	waiting []*batch          // admitted, not yet picked up; FIFO
	running int               // live worker goroutines, one batch each
	pending map[string]*batch // key -> unresolved batch accepting joiners

	runs [runRingSize]time.Duration // recent run durations, feeding the deadline check
	runN int                        // runs ever recorded

	// The lifetime counters live only in the registry; stat reads them.
	cSubmitted, cBatched, cQueueFull, cRefused, cCancelled, cDoomed, cWireCalls *obs.Counter
	gDepth, gInflight                                                           *obs.Gauge
	hWait, hRun                                                                 *obs.Histogram
}

func newQueue(d *Dispatcher, source string, lim Limits) *queue {
	reg := d.cfg.Metrics
	l := func(name string) string { return obs.L(name, "source", source) }
	return &queue{
		d:          d,
		source:     source,
		lim:        lim,
		pending:    map[string]*batch{},
		cSubmitted: reg.Counter(l(obs.MDispatchSubmitted)),
		cBatched:   reg.Counter(l(obs.MDispatchBatched)),
		cQueueFull: reg.Counter(l(obs.MDispatchQueueFull)),
		cRefused:   reg.Counter(l(obs.MDispatchRefused)),
		cCancelled: reg.Counter(l(obs.MDispatchCancelled)),
		cDoomed:    reg.Counter(l(obs.MDispatchDoomed)),
		cWireCalls: reg.Counter(l(obs.MDispatchWireCalls)),
		gDepth:     reg.Gauge(l(obs.MDispatchQueueDepth)),
		gInflight:  reg.Gauge(l(obs.MDispatchInflight)),
		hWait:      reg.Histogram(l(obs.MDispatchWaitSeconds)),
		hRun:       reg.Histogram(l(obs.MDispatchRunSeconds)),
	}
}

// batch is one (possibly shared) unit of queued work: a task and its
// waiters. waiters is guarded by the queue mutex; val, err, ran and
// fanout are written by whoever resolves the batch, before done
// closes, and read only after.
type batch struct {
	key      string
	fn       Task
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time
	done     chan struct{}

	waiters int

	val    any
	err    error
	ran    time.Duration
	fanout int
}

// submit joins an in-flight batch for key or admits a new one — started
// at once when a worker slot is free, queued otherwise — shedding with
// ErrQueueFull when the queue is at its depth bound and with ErrDeadline
// when the caller's remaining budget cannot cover the source's typical
// service time.
func (q *queue) submit(ctx context.Context, key string, fn Task) (*Ticket, error) {
	now := q.d.cfg.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	// The empty key is never stored, so it never finds a batch to join.
	if b := q.pending[key]; b != nil {
		b.waiters++
		q.cSubmitted.Inc()
		q.cBatched.Inc()
		return &Ticket{q: q, b: b}, nil
	}
	// Deadline-aware admission, leaders only (a joiner rides a call that
	// is running regardless): refuse work whose remaining budget cannot
	// cover the source's observed median service time — it would only
	// occupy queue and worker capacity on its way to a deadline error.
	// The wall clock (not the injectable test clock) measures remaining
	// budget, because context deadlines come from the wall clock; frozen
	// -clock tests record zero-duration runs and are never doomed. An
	// idle source (no worker running) always admits, so one probe at a
	// time refreshes the estimate and a recovered source is not locked
	// out by its slow history.
	if deadline, ok := ctx.Deadline(); ok && q.running > 0 {
		if med, remaining := q.typicalRun(), time.Until(deadline); med > 0 && remaining < med {
			q.cDoomed.Inc()
			return nil, fmt.Errorf("%w: %s (typical run %v, budget %v)", ErrDeadline, q.source, med, remaining)
		}
	}
	start := q.running < q.lim.Concurrency
	if !start && len(q.waiting) >= q.lim.QueueDepth {
		q.cQueueFull.Inc()
		return nil, fmt.Errorf("%w: %s (depth %d)", ErrQueueFull, q.source, q.lim.QueueDepth)
	}
	// The batch context keeps the leader's values (trace, metrics) but
	// detaches its cancellation: a batch serves every waiter, so it ends
	// early only when all of them have abandoned it.
	bctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	b := &batch{key: key, fn: fn, ctx: bctx, cancel: cancel, enqueued: now, waiters: 1, done: make(chan struct{})}
	if key != "" {
		q.pending[key] = b
	}
	q.cSubmitted.Inc()
	if start {
		q.running++
		q.gInflight.Set(int64(q.running))
		go q.work(b)
	} else {
		q.waiting = append(q.waiting, b)
		q.gDepth.Set(int64(len(q.waiting)))
	}
	return &Ticket{q: q, b: b, led: true}, nil
}

// abandon unregisters one waiter of b. The batch dies with its last
// waiter: in one critical section it leaves the pending map, so a later
// identical submit starts a fresh batch instead of joining this one and
// inheriting its cancellation, and the FIFO if it is still there, so
// work nobody waits for holds no depth slot. Picked up already, it has
// its context cancelled instead.
func (q *queue) abandon(b *batch) {
	now := q.d.cfg.Now()
	q.mu.Lock()
	b.waiters--
	last := b.waiters == 0
	i := -1 // b's place in the FIFO, when it is dropped from there
	var waited time.Duration
	if last {
		if q.pending[b.key] == b {
			delete(q.pending, b.key)
		}
		if i = slices.Index(q.waiting, b); i >= 0 {
			q.waiting = slices.Delete(q.waiting, i, i+1)
			q.gDepth.Set(int64(len(q.waiting)))
			waited = now.Sub(b.enqueued)
			b.err = fmt.Errorf("dispatch: %s: batch abandoned before start: %w", q.source, context.Canceled)
			q.cCancelled.Inc()
		}
	}
	q.mu.Unlock()
	if i >= 0 {
		q.hWait.Observe(waited)
		close(b.done)
	}
	if last {
		b.cancel()
	}
}

// typicalRun is the median of the recent-run ring, 0 below minRunSamples
// observations. Caller holds q.mu.
func (q *queue) typicalRun() time.Duration {
	n := min(q.runN, runRingSize)
	if n < minRunSamples {
		return 0
	}
	buf := q.runs
	slices.Sort(buf[:n])
	return buf[n/2]
}

// stat reads the live fields and the lifetime counters under q.mu, where
// every counter is bumped, so one QueueStat never splits an update.
func (q *queue) stat() QueueStat {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStat{
		Source:  q.source,
		Workers: q.lim.Concurrency, QueueCap: q.lim.QueueDepth,
		Depth: int64(len(q.waiting)), Inflight: int64(q.running),
		Submitted: q.cSubmitted.Value(), Batched: q.cBatched.Value(),
		QueueFull: q.cQueueFull.Value(), Refused: q.cRefused.Value(),
		Cancelled: q.cCancelled.Value(), Doomed: q.cDoomed.Value(),
		WireCalls:  q.cWireCalls.Value(),
		TypicalRun: q.typicalRun(),
	}
}

// work is a worker's life: run the batch it was started with, then
// whatever the queue hands it next, until the queue retires it.
func (q *queue) work(b *batch) {
	for b != nil {
		b = q.run(b)
	}
}

// run resolves one batch with at most one task call and returns the
// worker's next batch. A batch every waiter has already abandoned, and
// any batch when the source is refused, resolves without running; the
// rest run under the batch context, which keeps the leader's values
// (trace, metrics) and ends only when every waiter has abandoned it.
//
// Publishing the result and taking the next batch are one critical
// section, entered before the done channel closes: a waiter that sees
// its ticket resolved also sees the queue state that follows from it (an
// idle source reads Inflight 0), and the batch has left the pending map,
// as in qcache's flightGroup, so a later identical submit starts a fresh
// batch instead of joining a finished one.
func (q *queue) run(b *batch) (next *batch) {
	now := q.d.cfg.Now
	q.hWait.Observe(now().Sub(b.enqueued))
	var cancelled, refused, ran int64
	switch {
	case b.ctx.Err() != nil:
		b.err = fmt.Errorf("dispatch: %s: batch abandoned before start: %w", q.source, context.Cause(b.ctx))
		cancelled++
	case q.d.cfg.Refuse != nil && q.d.cfg.Refuse(q.source):
		b.err = fmt.Errorf("%w: %s", ErrRefused, q.source)
		refused++
	default:
		start := now()
		b.val, b.err = q.call(b)
		b.ran = now().Sub(start)
		q.hRun.Observe(b.ran)
		ran++
	}

	q.mu.Lock()
	if q.pending[b.key] == b {
		delete(q.pending, b.key)
	}
	b.fanout = b.waiters
	q.cCancelled.Add(cancelled)
	q.cRefused.Add(refused)
	q.cWireCalls.Add(ran)
	if ran > 0 {
		q.runs[q.runN%runRingSize] = b.ran
		q.runN++
	}
	if len(q.waiting) > 0 {
		next = q.waiting[0]
		q.waiting = slices.Delete(q.waiting, 0, 1)
		q.gDepth.Set(int64(len(q.waiting)))
	} else { // nothing waits: the worker retires
		q.running--
		q.gInflight.Set(int64(q.running))
	}
	q.mu.Unlock()
	close(b.done)
	b.cancel() // a resolved batch's context has no further use
	return next
}

// call runs the batch's task with panic containment.
func (q *queue) call(b *batch) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dispatch: %s: task panicked: %v", q.source, r)
		}
	}()
	return b.fn(b.ctx)
}
