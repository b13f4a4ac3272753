package dispatch

import (
	"context"
	"fmt"
)

// MuxExec evaluates a drained group of queued items in one wire call.
// It must return exactly one value or error per item, index-aligned
// (exactly one of vals[i], errs[i] meaningful per item — a nil errs[i]
// means vals[i] is the item's result). The items are whatever the
// submitters passed to SubmitMux, so the dispatcher stays agnostic of
// the wire payload; core passes queries and gets results.
//
// One group runs one exec — the leader batch's — under a merged context
// that stays live while any member still has a waiter, so per-item
// abandonment never kills the shared call early.
type MuxExec func(ctx context.Context, items []any) (vals []any, errs []error)

// SubmitMux enqueues one multiplexable item for the source. It behaves
// exactly like Submit — same admission, coalescing by key, shedding and
// Ticket semantics — but marks the work as wire-batchable: when a worker
// picks it up it drains further SubmitMux work for the same source (up
// to the live MaxBatchWire bound) and issues one exec call for the whole
// drain, fanning the per-item results back to each ticket's waiters.
//
// Per-item failure semantics survive the multiplexing: each ticket
// resolves with its own item's error, and Ticket.FaultPrimary
// distinguishes the one member whose failure should feed per-call
// accounting (a circuit breaker) from members that merely shared the
// wire call.
func (d *Dispatcher) SubmitMux(ctx context.Context, source, key string, lim Limits, item any, exec MuxExec) (*Ticket, error) {
	if exec == nil {
		return nil, fmt.Errorf("dispatch: SubmitMux requires an exec")
	}
	q, err := d.queueFor(source, lim)
	if err != nil {
		return nil, err
	}
	return q.submit(ctx, key, nil, item, exec)
}

// runGroup resolves a drained group of mux batches with a single exec
// call. Members already abandoned or refused resolve inline first; the
// survivors run under a merged context derived from the leader's (its
// trace and metrics values) that is cancelled only once every member's
// own batch context has ended — so as long as one member has a live
// waiter, the shared wire call keeps running.
func (q *queue) runGroup(group []*batch) {
	now := q.d.cfg.Now
	active := make([]*batch, 0, len(group))
	for _, b := range group {
		b.waited = now().Sub(b.enqueued)
		q.hWait.Observe(b.waited)
		switch {
		case b.ctx.Err() != nil:
			b.err = fmt.Errorf("dispatch: %s: batch abandoned before start: %w", q.source, context.Cause(b.ctx))
			q.cancelled.Add(1)
			q.cCancelled.Inc()
			q.resolve(b)
		case q.d.cfg.Refuse != nil && q.d.cfg.Refuse(q.source):
			b.err = fmt.Errorf("%w: %s", ErrRefused, q.source)
			q.refused.Add(1)
			q.cRefused.Inc()
			q.resolve(b)
		default:
			active = append(active, b)
		}
	}
	if len(active) == 0 {
		return
	}
	leader := active[0]
	gctx, gcancel := context.WithCancel(context.WithoutCancel(leader.ctx))
	go func() {
		// Each member's context ends either when its last waiter abandons
		// it or when resolve cancels it after the run, so this watcher
		// always terminates — and cancels the shared call early exactly
		// when nobody is waiting for any member anymore.
		for _, b := range active {
			<-b.ctx.Done()
		}
		gcancel()
	}()
	items := make([]any, len(active))
	for i, b := range active {
		items[i] = b.item
	}
	q.gInflight.Add(1)
	start := now()
	var (
		vals     []any
		errs     []error
		panicErr error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicErr = fmt.Errorf("dispatch: %s: mux exec panicked: %v", q.source, r)
			}
		}()
		vals, errs = leader.exec(gctx, items)
	}()
	ran := now().Sub(start)
	q.hRun.Observe(ran)
	q.recordRun(ran)
	q.gInflight.Add(-1)
	q.countWire(len(active))
	if panicErr == nil && (len(vals) != len(active) || len(errs) != len(active)) {
		panicErr = fmt.Errorf("dispatch: %s: mux exec returned %d values, %d errors for %d items",
			q.source, len(vals), len(errs), len(active))
	}
	faultTaken := false
	for i, b := range active {
		b.ran = ran
		if panicErr != nil {
			b.err = panicErr
		} else {
			b.val, b.err = vals[i], errs[i]
		}
		// Exactly one failed member is the wire call's primary fault; the
		// rest merely shared the call and must not double-count against
		// per-call accounting such as a breaker's failure threshold.
		b.faultPrimary = b.err != nil && !faultTaken
		if b.err != nil {
			faultTaken = true
		}
		q.resolve(b)
	}
}

// FaultPrimary reports whether this ticket's failure should feed
// per-wire-call accounting (a circuit breaker's Record). It is true for
// a single-task batch (the batch is its own wire call), for the first
// failed member of a multiplexed group, and for an unresolved batch (a
// waiter that timed out waiting still charges the source, as it did
// before wire multiplexing). Successful members report false, but a
// nil-error outcome should feed success accounting regardless — gate
// only the failure path on FaultPrimary.
func (t *Ticket) FaultPrimary() bool {
	if !t.resolved() {
		return true
	}
	return t.b.faultPrimary
}
