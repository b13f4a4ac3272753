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
// or is shed; a worker that finishes a group takes the next one or
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
	running int               // live worker goroutines, one group each
	pending map[string]*batch // key -> unresolved batch accepting joiners

	runs [runRingSize]time.Duration // recent run durations, feeding the deadline check
	runN int                        // runs ever recorded
	st   QueueStat                  // Source and lifetime counters; stat fills in the live fields

	cSubmitted, cBatched, cQueueFull, cRefused, cCancelled, cDoomed *obs.Counter
	cWireCalls, cWireItems                                          *obs.Counter
	gDepth, gInflight                                               *obs.Gauge
	hWait, hRun, hWireSize                                          *obs.Histogram
}

func newQueue(d *Dispatcher, source string, lim Limits) *queue {
	reg := d.cfg.Metrics
	l := func(name string) string { return obs.L(name, "source", source) }
	return &queue{
		d:          d,
		source:     source,
		lim:        lim,
		pending:    map[string]*batch{},
		st:         QueueStat{Source: source},
		cSubmitted: reg.Counter(l(obs.MDispatchSubmitted)),
		cBatched:   reg.Counter(l(obs.MDispatchBatched)),
		cQueueFull: reg.Counter(l(obs.MDispatchQueueFull)),
		cRefused:   reg.Counter(l(obs.MDispatchRefused)),
		cCancelled: reg.Counter(l(obs.MDispatchCancelled)),
		cDoomed:    reg.Counter(l(obs.MDispatchDoomed)),
		cWireCalls: reg.Counter(l(obs.MDispatchWireCalls)),
		cWireItems: reg.Counter(l(obs.MDispatchWireItems)),
		gDepth:     reg.Gauge(l(obs.MDispatchQueueDepth)),
		gInflight:  reg.Gauge(l(obs.MDispatchInflight)),
		hWait:      reg.Histogram(l(obs.MDispatchWaitSeconds)),
		hRun:       reg.Histogram(l(obs.MDispatchRunSeconds)),
		// Items per wire call: the buckets are counts, not durations.
		hWireSize: reg.HistogramBuckets(l(obs.MDispatchWireSize), []time.Duration{1, 2, 4, 8, 16, 32, 64}),
	}
}

// bump adds n to one lifetime counter in both places it is read from:
// the QueueStat field Snapshot reports and the registry counter /metrics
// exposes. The caller holds the queue's mu.
func bump(field *int64, c *obs.Counter, n int) {
	*field += int64(n)
	c.Add(int64(n))
}

// batch is one (possibly shared) unit of queued work: an item and the
// exec that evaluates a group of such items. waiters is guarded by the
// queue mutex; val, err, waited, ran, fanout and faultPrimary are written
// by whoever resolves the batch, before done closes, and read only after.
type batch struct {
	key  string
	item any
	exec MuxExec
	// mux marks a SubmitMux batch, which may share a group with its mux
	// neighbours; a Submit batch always runs as a group of one.
	mux      bool
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time
	done     chan struct{}

	waiters int

	val    any
	err    error
	waited time.Duration
	ran    time.Duration
	fanout int
	// faultPrimary marks the batch whose failure is its wire call's
	// primary fault: true for exactly one failed member of a group that
	// ran (see Ticket.FaultPrimary), and for batches that never ran.
	faultPrimary bool
}

// submit joins an in-flight batch for key or admits a new one — started
// at once when a worker slot is free, queued otherwise — shedding with
// ErrQueueFull when the queue is at its depth bound and with ErrDeadline
// when the caller's remaining budget cannot cover the source's typical
// service time.
func (q *queue) submit(ctx context.Context, key string, item any, exec MuxExec, mux bool) (*Ticket, error) {
	now := q.d.cfg.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	// The empty key is never stored, so it never finds a batch to join.
	if b := q.pending[key]; b != nil {
		b.waiters++
		bump(&q.st.Submitted, q.cSubmitted, 1)
		bump(&q.st.Batched, q.cBatched, 1)
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
			bump(&q.st.Doomed, q.cDoomed, 1)
			return nil, fmt.Errorf("%w: %s (typical run %v, budget %v)", ErrDeadline, q.source, med, remaining)
		}
	}
	start := q.running < q.lim.Concurrency
	if !start && len(q.waiting) >= q.lim.QueueDepth {
		bump(&q.st.QueueFull, q.cQueueFull, 1)
		return nil, fmt.Errorf("%w: %s (depth %d)", ErrQueueFull, q.source, q.lim.QueueDepth)
	}
	// The batch context keeps the leader's values (trace, metrics) but
	// detaches its cancellation: a batch serves every waiter, so it ends
	// early only when all of them have abandoned it.
	bctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	b := &batch{
		key:      key,
		item:     item,
		exec:     exec,
		mux:      mux,
		ctx:      bctx,
		cancel:   cancel,
		enqueued: now,
		waiters:  1,
		done:     make(chan struct{}),
		// Until a group run says otherwise, every batch is the primary
		// fault of its own wire call.
		faultPrimary: true,
	}
	if key != "" {
		q.pending[key] = b
	}
	bump(&q.st.Submitted, q.cSubmitted, 1)
	if start {
		q.running++
		q.gInflight.Set(int64(q.running))
		go q.work([]*batch{b})
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
	if last {
		if q.pending[b.key] == b {
			delete(q.pending, b.key)
		}
		if i = slices.Index(q.waiting, b); i >= 0 {
			q.waiting = slices.Delete(q.waiting, i, i+1)
			q.gDepth.Set(int64(len(q.waiting)))
			b.waited = now.Sub(b.enqueued)
			b.err = fmt.Errorf("dispatch: %s: batch abandoned before start: %w", q.source, context.Canceled)
			bump(&q.st.Cancelled, q.cCancelled, 1)
		}
	}
	q.mu.Unlock()
	if i >= 0 {
		q.hWait.Observe(b.waited)
		close(b.done)
	}
	if last {
		b.cancel()
	}
}

// cut takes the next group off the head of the FIFO: the head batch and,
// when that is a mux submission, the mux submissions directly behind it
// up to MaxBatchWire. The first plain task ends the group — it keeps its
// place and heads the next one, so pickup order stays submission order.
// Caller holds q.mu; waiting is not empty.
func (q *queue) cut() []*batch {
	n := 1
	for q.waiting[0].mux && n < len(q.waiting) && n < q.lim.MaxBatchWire && q.waiting[n].mux {
		n++
	}
	group := slices.Clone(q.waiting[:n])
	q.waiting = slices.Delete(q.waiting, 0, n)
	q.gDepth.Set(int64(len(q.waiting)))
	return group
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

func (q *queue) stat() QueueStat {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.st
	st.Workers, st.QueueCap = q.lim.Concurrency, q.lim.QueueDepth
	st.Depth, st.Inflight = int64(len(q.waiting)), int64(q.running)
	st.TypicalRun = q.typicalRun()
	return st
}

// work is a worker's life: run the group it was started with, then
// whatever the queue hands it next, until the queue retires it.
func (q *queue) work(group []*batch) {
	for group != nil {
		group = q.runGroup(group)
	}
}

// runGroup resolves one group with at most one exec call and returns the
// worker's next group. Members every waiter has already abandoned, and
// all members when the source is refused, resolve without running. The
// rest run as one call: the leader's exec over all their items, under
// the leader's batch context when it is alone, otherwise under a merged
// context with the leader's values (trace, metrics) that is cancelled
// only once every member's own context has ended — while one member has
// a live waiter, the shared wire call keeps running.
//
// Publishing the results and taking the next group are one critical
// section, entered before any done channel closes: a waiter that sees
// its ticket resolved also sees the queue state that follows from it
// (an idle source reads Inflight 0), and each batch has left the pending
// map, as in qcache's flightGroup, so a later identical submit starts a
// fresh batch instead of joining a finished one.
func (q *queue) runGroup(group []*batch) (next []*batch) {
	now := q.d.cfg.Now
	refuse := q.d.cfg.Refuse != nil && q.d.cfg.Refuse(q.source)
	picked := now()
	active := make([]*batch, 0, len(group))
	var cancelled, refused int
	for _, b := range group {
		b.waited = picked.Sub(b.enqueued)
		q.hWait.Observe(b.waited)
		switch {
		case b.ctx.Err() != nil:
			b.err = fmt.Errorf("dispatch: %s: batch abandoned before start: %w", q.source, context.Cause(b.ctx))
			cancelled++
		case refuse:
			b.err = fmt.Errorf("%w: %s", ErrRefused, q.source)
			refused++
		default:
			active = append(active, b)
		}
	}
	var ran time.Duration
	if len(active) > 0 {
		ctx := active[0].ctx
		if len(active) > 1 {
			gctx, gcancel := context.WithCancel(context.WithoutCancel(ctx))
			go func() {
				// Each member's context ends either when its last waiter
				// abandons it or when it is cancelled after the run below,
				// so this watcher always terminates — and cancels the
				// shared call early exactly when nobody is waiting for any
				// member anymore.
				for _, b := range active {
					<-b.ctx.Done()
				}
				gcancel()
			}()
			ctx = gctx
		}
		items := make([]any, len(active))
		for i, b := range active {
			items[i] = b.item
		}
		start := now()
		vals, errs, err := q.call(ctx, active[0].exec, items)
		ran = now().Sub(start)
		q.hRun.Observe(ran)
		q.hWireSize.Observe(time.Duration(len(active)))
		faultTaken := false
		for i, b := range active {
			b.ran = ran
			if b.err = err; err == nil {
				b.val, b.err = vals[i], errs[i]
			}
			// Exactly one failed member is the wire call's primary fault;
			// the rest merely shared the call and must not double-count
			// against per-call accounting such as a breaker's failure
			// threshold.
			b.faultPrimary = b.err != nil && !faultTaken
			faultTaken = faultTaken || b.err != nil
		}
	}

	q.mu.Lock()
	for _, b := range group {
		if q.pending[b.key] == b {
			delete(q.pending, b.key)
		}
		b.fanout = b.waiters
	}
	bump(&q.st.Cancelled, q.cCancelled, cancelled)
	bump(&q.st.Refused, q.cRefused, refused)
	if len(active) > 0 {
		q.runs[q.runN%runRingSize] = ran
		q.runN++
		bump(&q.st.WireCalls, q.cWireCalls, 1)
		bump(&q.st.WireItems, q.cWireItems, len(active))
	}
	if len(q.waiting) > 0 {
		next = q.cut()
	} else { // nothing waits: the worker retires
		q.running--
		q.gInflight.Set(int64(q.running))
	}
	q.mu.Unlock()
	// A resolved batch's context has no further use; cancelling it also
	// releases the merged-context watcher.
	for _, b := range group {
		close(b.done)
		b.cancel()
	}
	return next
}

// call runs one exec over items with panic containment and checks its
// index-aligned contract; a non-nil err fails every item.
func (q *queue) call(ctx context.Context, exec MuxExec, items []any) (vals []any, errs []error, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dispatch: %s: task panicked: %v", q.source, r)
		}
	}()
	vals, errs = exec(ctx, items)
	if len(vals) != len(items) || len(errs) != len(items) {
		err = fmt.Errorf("dispatch: %s: exec returned %d values, %d errors for %d items",
			q.source, len(vals), len(errs), len(items))
	}
	return vals, errs, err
}
