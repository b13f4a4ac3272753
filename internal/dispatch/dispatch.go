// Package dispatch owns all per-source traffic of a metasearcher: one
// bounded FIFO queue per source, served by at most Concurrency worker
// goroutines. Identical in-flight sub-queries destined for the same
// source coalesce into a single wire call whose result is fanned back to
// every waiter, and a freed worker carries several distinct queued
// sub-queries in one multiplexed call.
//
// The paper's metasearcher model (Figure 1) puts one logical channel
// between the metasearcher and each source; this package is that
// channel. Each source owns a bounded queue, searches merely submit work
// and wait on a Ticket. Submission is non-blocking — a full queue sheds
// with a typed ErrQueueFull, and a submission whose remaining context
// budget cannot cover the source's observed typical service time sheds
// with a typed ErrDeadline instead of queueing doomed work — and a
// Refuse hook lets a circuit breaker fast-drain the queue of an open
// source instead of timing out each waiter. A source's whole scheduling
// state sits under one mutex (see queue), and an idle source holds no
// goroutine.
//
// Batching reuses the qcache singleflight shape (pending map, done
// channel, delete-before-close) one level below the answer cache: keys
// are per-source fingerprints of the translated sub-query, so two
// different user queries that translate identically for a source still
// share one wire call.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"starts/internal/obs"
)

// Default per-source bounds, used when Limits leave a field zero.
const (
	// DefaultConcurrency is the default worker count per source.
	DefaultConcurrency = 4
	// DefaultQueueDepth is the default bound on batches waiting per
	// source before Submit sheds with ErrQueueFull.
	DefaultQueueDepth = 64
	// DefaultMaxBatchWire is the default bound on queued mux submissions
	// a worker drains into one wire call (see SubmitMux).
	DefaultMaxBatchWire = 16
)

// queueHardCap is the largest QueueDepth a queue accepts: whatever a
// caller asks for, the work parked behind one source stays bounded.
const queueHardCap = 1024

// Typed dispatch failures, detectable with errors.Is.
var (
	// ErrQueueFull is returned by Submit when a source's queue is at its
	// depth bound; the caller was shed without blocking.
	ErrQueueFull = errors.New("dispatch: source queue full")
	// ErrRefused resolves a batch whose source's Refuse hook reported it
	// unavailable (typically a circuit breaker in the open state): the
	// queue drains fast instead of timing out each waiter.
	ErrRefused = errors.New("dispatch: source refused")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("dispatch: dispatcher closed")
	// ErrDeadline is returned by Submit when the caller's remaining
	// context budget cannot cover the source's observed typical (median)
	// service time: the call was doomed to time out, so it fails fast
	// instead of occupying queue and worker capacity on its way to a
	// deadline error. Submissions to an idle source are always admitted,
	// so a recovered source is re-probed instead of locked out by its own
	// history.
	ErrDeadline = errors.New("dispatch: deadline too tight for source")
)

// Declined reports whether err is the dispatcher's own verdict on a
// submission — shed (ErrQueueFull, ErrDeadline), fast-drained
// (ErrRefused) or shut down (ErrClosed) — rather than an outcome of the
// submitted work. A declined call never reached the source, so it says
// nothing about the source's health.
func Declined(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrRefused) ||
		errors.Is(err, ErrDeadline) || errors.Is(err, ErrClosed)
}

// Task is one unit of per-source work: typically a single wire call. It
// runs on a source-owned worker goroutine under a batch context that
// carries the submitting leader's trace and metrics but detaches its
// cancellation; the context ends early only when every waiter has
// abandoned the batch.
type Task func(ctx context.Context) (any, error)

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

// Limits bound one source's queue: how many workers serve it and how
// many batches may wait. Zero fields take the dispatcher's configured
// defaults (and ultimately DefaultConcurrency/DefaultQueueDepth). A
// source's queue is created on first submit with the limits in effect
// then and keeps them: later submits with different limits do not
// resize it.
type Limits struct {
	// Concurrency is the worker count: the hard bound on the source's
	// in-flight wire calls.
	Concurrency int
	// QueueDepth bounds batches waiting for a worker.
	QueueDepth int
	// MaxBatchWire bounds how many queued mux submissions (SubmitMux) a
	// worker drains into a single wire call. 1 disables wire batching;
	// zero takes the default (DefaultMaxBatchWire).
	MaxBatchWire int
}

// withDefaults fills zero fields from fallback, then from the package
// defaults, and caps QueueDepth at queueHardCap.
func (l Limits) withDefaults(fallback Limits) Limits {
	return Limits{
		Concurrency:  firstPositive(l.Concurrency, fallback.Concurrency, DefaultConcurrency),
		QueueDepth:   min(firstPositive(l.QueueDepth, fallback.QueueDepth, DefaultQueueDepth), queueHardCap),
		MaxBatchWire: firstPositive(l.MaxBatchWire, fallback.MaxBatchWire, DefaultMaxBatchWire),
	}
}

func firstPositive(vs ...int) int {
	for _, v := range vs {
		if v > 0 {
			return v
		}
	}
	return 0
}

// Config configures a Dispatcher. The zero value is usable.
type Config struct {
	// Limits are the per-source defaults for queues whose Submit passes
	// zero Limits fields.
	Limits Limits
	// Refuse, when set, is consulted by a worker before running a group:
	// true resolves its batches immediately with ErrRefused. Wire a
	// circuit breaker's open-state check here so a broken source's queue
	// drains fast. It must be safe for concurrent use.
	Refuse func(source string) bool
	// Metrics receives the starts_dispatch_* counters, gauges and
	// histograms; nil allocates a private registry.
	Metrics *obs.Registry
	// Now overrides the clock for wait/run timing, so tests with frozen
	// clocks stay deterministic.
	Now func() time.Time
}

// Dispatcher routes per-source work through bounded, batching queues.
// All methods are safe for concurrent use.
type Dispatcher struct {
	cfg Config

	mu     sync.Mutex
	queues map[string]*queue
	closed bool
}

// New returns a dispatcher for the config.
func New(cfg Config) *Dispatcher {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Dispatcher{cfg: cfg, queues: map[string]*queue{}}
}

// Metrics returns the registry the dispatcher records into.
func (d *Dispatcher) Metrics() *obs.Registry { return d.cfg.Metrics }

// Submit enqueues fn for the source, or joins an in-flight batch with
// the same non-empty key (one wire call fans back to all waiters; keys
// must identify the work, e.g. a fingerprint of the translated query —
// an empty key never coalesces). It never blocks: a queue at its depth
// bound sheds with ErrQueueFull. On success the caller must consume the
// returned Ticket with Wait. A plain task is a group of one: it never
// shares a wire call with its queue neighbours.
func (d *Dispatcher) Submit(ctx context.Context, source, key string, lim Limits, fn Task) (*Ticket, error) {
	return d.submit(ctx, source, key, lim, fn, runTask, false)
}

// runTask is the exec of every Submit batch: the item is the Task.
func runTask(ctx context.Context, items []any) ([]any, []error) {
	v, err := items[0].(Task)(ctx)
	return []any{v}, []error{err}
}

// SubmitMux enqueues one multiplexable item for the source. It behaves
// exactly like Submit — same admission, coalescing by key, shedding and
// Ticket semantics — but marks the work as wire-batchable: a worker that
// picks it up off the queue takes the SubmitMux work queued directly
// behind it along (up to the MaxBatchWire bound) and issues one
// exec call for the whole group, fanning the per-item results back to
// each ticket's waiters.
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
	return d.submit(ctx, source, key, lim, item, exec, true)
}

// submit hands the item to the source's queue, created on first touch.
func (d *Dispatcher) submit(ctx context.Context, source, key string, lim Limits, item any, exec MuxExec, mux bool) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	q := d.queues[source]
	if q == nil {
		q = newQueue(d, source, lim.withDefaults(d.cfg.Limits))
		d.queues[source] = q
	}
	d.mu.Unlock()
	return q.submit(ctx, key, item, exec, mux)
}

// QueueStat is one source queue's live state and lifetime counters, for
// debug endpoints and tests.
type QueueStat struct {
	// Source is the source ID the queue serves.
	Source string `json:"source"`
	// Workers and QueueCap echo the queue's Limits.
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_cap"`
	// Depth is the number of batches currently waiting for a worker.
	Depth int64 `json:"depth"`
	// Inflight is the number of workers currently running a group.
	Inflight int64 `json:"inflight"`
	// Submitted counts accepted submissions (leaders plus joiners);
	// Batched counts the joiners among them, so Submitted-Batched is the
	// number of wire calls attempted.
	Submitted int64 `json:"submitted"`
	Batched   int64 `json:"batched"`
	// QueueFull counts submissions shed with ErrQueueFull.
	QueueFull int64 `json:"queue_full"`
	// Refused counts batches fast-drained with ErrRefused.
	Refused int64 `json:"refused"`
	// Cancelled counts batches whose every waiter abandoned them before
	// their work started.
	Cancelled int64 `json:"cancelled"`
	// Doomed counts submissions refused with ErrDeadline because their
	// remaining context budget could not cover the source's observed
	// typical service time.
	Doomed int64 `json:"doomed"`
	// WireCalls counts wire calls actually issued; WireItems counts the
	// queue items they carried (a multiplexed drain contributes one call
	// and several items, so 1 - WireCalls/WireItems is the batched-wire
	// ratio).
	WireCalls int64 `json:"wire_calls"`
	WireItems int64 `json:"wire_items"`
	// TypicalRun is the source's current median observed service time (0
	// until enough runs are recorded) — the estimate the deadline check
	// admits against.
	TypicalRun time.Duration `json:"typical_run_ns"`
}

// Snapshot reports every source queue's stats, sorted by source ID.
func (d *Dispatcher) Snapshot() []QueueStat {
	d.mu.Lock()
	stats := make([]QueueStat, 0, len(d.queues))
	for _, q := range d.queues {
		stats = append(stats, q.stat())
	}
	d.mu.Unlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Source < stats[j].Source })
	return stats
}

// Close stops accepting submissions; workers drain the batches already
// admitted and exit. It is safe to call more than once.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
}

// Ticket is one waiter's handle on a submitted batch.
type Ticket struct {
	q       *queue
	b       *batch
	led     bool
	abandon sync.Once
}

// Led reports whether this waiter created the batch (false: it joined an
// in-flight one). Exactly one waiter per wire call leads; feed breaker
// or accounting state from the leader only, or shared calls are
// double-counted.
func (t *Ticket) Led() bool { return t.led }

// Wait blocks until the batch resolves or ctx ends. Abandoning a batch
// (ctx ending first) unregisters this waiter; when the last waiter
// abandons, the batch accepts no new joiners and either leaves the queue
// on the spot (still waiting) or has its context cancelled (running), so
// a wire call nobody is waiting for stops — the same behavior an
// un-dispatched call had under its search's context.
func (t *Ticket) Wait(ctx context.Context) (any, error) {
	select {
	case <-t.b.done:
		return t.b.val, t.b.err
	case <-ctx.Done():
		t.abandon.Do(func() { t.q.abandon(t.b) })
		return nil, ctx.Err()
	}
}

// unresolved is what a ticket reports until its batch resolves: no
// timings, no fanout, and a fault that is its own (see FaultPrimary).
var unresolved = batch{faultPrimary: true}

// outcome returns the batch once it has resolved — its result fields
// are only safe to read then — and the unresolved placeholder before.
func (t *Ticket) outcome() *batch {
	select {
	case <-t.b.done:
		return t.b
	default:
		return &unresolved
	}
}

// Waited returns how long the batch sat queued before a worker picked it
// up (0 until the batch resolves).
func (t *Ticket) Waited() time.Duration { return t.outcome().waited }

// RunFor returns the wire call's own duration — shared by every waiter
// of a batch — or 0 if the batch has not resolved or never ran.
func (t *Ticket) RunFor() time.Duration { return t.outcome().ran }

// Fanout returns how many waiters the resolved batch served (at least 1;
// 0 until the batch resolves). A fanout above 1 means the result value
// is shared: consumers that mutate it must copy first.
func (t *Ticket) Fanout() int { return t.outcome().fanout }

// FaultPrimary reports whether this ticket's failure should feed
// per-wire-call accounting (a circuit breaker's Record). It is true for
// a group of one (the batch is its own wire call), for the first failed
// member of a multiplexed group, and for an unresolved batch (a waiter
// that timed out waiting still charges the source, as it did before
// wire multiplexing). Successful members report false, but a nil-error
// outcome should feed success accounting regardless — gate only the
// failure path on FaultPrimary.
func (t *Ticket) FaultPrimary() bool { return t.outcome().faultPrimary }
