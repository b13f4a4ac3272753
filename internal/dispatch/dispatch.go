// Package dispatch owns all per-source traffic of a metasearcher: one
// bounded FIFO queue per source, served by at most Concurrency worker
// goroutines. Identical in-flight sub-queries destined for the same
// source coalesce into a single wire call whose result is fanned back to
// every waiter; distinct ones each get their own call.
//
// The paper's metasearcher model (Figure 1) puts one logical channel
// between the metasearcher and each source; this package is that
// channel, and the one place concurrent calls to a source meet. Each
// source owns a bounded queue, searches merely submit work and wait on a
// Ticket. Submission is non-blocking — a full queue sheds with a typed
// ErrQueueFull, and a submission whose remaining context budget cannot
// cover the source's observed typical service time sheds with a typed
// ErrDeadline instead of queueing doomed work. A source's whole
// scheduling state sits under one mutex (see queue), and an idle source
// holds no goroutine.
//
// A batch runs under a context detached from every waiter's cancellation
// and is cancelled only when its last waiter leaves, so one caller giving
// up never fails the others. Keys are per-source fingerprints of the
// translated sub-query, so two different user queries that translate
// identically for a source still share one wire call.
package dispatch

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"starts/internal/obs"
)

// Default per-source bounds, used when Limits leave a field zero.
const (
	// DefaultConcurrency is the default worker count per source: each
	// worker carries one sub-query at a time, over its own keep-alive
	// connection when the source is remote.
	DefaultConcurrency = 16
	// DefaultQueueDepth is the default bound on batches waiting per
	// source before Submit sheds with ErrQueueFull.
	DefaultQueueDepth = 64
)

// queueHardCap is the largest QueueDepth a queue accepts: whatever a
// caller asks for, the work parked behind one source stays bounded.
const queueHardCap = 1024

// Typed dispatch failures, detectable with errors.Is.
var (
	// ErrQueueFull is returned by Submit when a source's queue is at its
	// depth bound; the caller was shed without blocking.
	ErrQueueFull = errors.New("dispatch: source queue full")
	// ErrRefused is what a task returns when its source refused the call
	// before the wire (typically an open circuit breaker): queued batches
	// resolve at once instead of timing out their waiters.
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

// Declined reports whether err says a call never reached the source —
// shed (ErrQueueFull, ErrDeadline), refused (ErrRefused) or shut down
// (ErrClosed) — rather than being an outcome of the call itself. A
// declined call says nothing about the source's health.
func Declined(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrRefused) ||
		errors.Is(err, ErrDeadline) || errors.Is(err, ErrClosed)
}

// Task is one unit of per-source work: typically a single wire call. It
// runs on a source-owned worker goroutine under a batch context that
// carries the submitting leader's trace and metrics but detaches its
// cancellation; the context ends early only when every waiter has
// abandoned the batch, with the last one's context.Cause as its cause.
// Its deadline is the latest of its waiters' (none if one has none).
type Task func(ctx context.Context) (any, error)

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
}

// withDefaults fills zero fields from fallback, then from the package
// defaults, and caps QueueDepth at queueHardCap.
func (l Limits) withDefaults(fallback Limits) Limits {
	return Limits{
		Concurrency: firstPositive(l.Concurrency, fallback.Concurrency, DefaultConcurrency),
		QueueDepth:  min(firstPositive(l.QueueDepth, fallback.QueueDepth, DefaultQueueDepth), queueHardCap),
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
	// Metrics receives the starts_dispatch_* counters, gauges and
	// histograms; nil allocates a private registry. Snapshot reads its
	// lifetime counts back from these counters, so dispatchers sharing a
	// registry must serve distinct sources.
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

// Submit enqueues fn for the source, or joins an in-flight batch with
// the same non-empty key (one wire call fans back to all waiters; keys
// must identify the work, e.g. a fingerprint of the translated query —
// an empty key never coalesces). It never blocks: a queue at its depth
// bound sheds with ErrQueueFull. On success the caller must consume the
// returned Ticket with Wait. The queue is created on first touch.
func (d *Dispatcher) Submit(ctx context.Context, source, key string, lim Limits, fn Task) (*Ticket, error) {
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
	return q.submit(ctx, key, fn)
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
	// Inflight is the number of workers currently running a batch.
	Inflight int64 `json:"inflight"`
	// Submitted counts accepted submissions (leaders plus joiners);
	// Batched counts the joiners among them, so Submitted-Batched is the
	// number of wire calls attempted.
	Submitted int64 `json:"submitted"`
	Batched   int64 `json:"batched"`
	// QueueFull counts submissions shed with ErrQueueFull.
	QueueFull int64 `json:"queue_full"`
	// Cancelled counts batches whose every waiter abandoned them before
	// their work started.
	Cancelled int64 `json:"cancelled"`
	// Doomed counts submissions refused with ErrDeadline because their
	// remaining context budget could not cover the source's observed
	// typical service time.
	Doomed int64 `json:"doomed"`
	// WireCalls counts tasks run that reached the source: one wire call
	// each. A task that returned ErrRefused is not counted.
	WireCalls int64 `json:"wire_calls"`
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
// in-flight one). Exactly one waiter per wire call leads.
func (t *Ticket) Led() bool { return t.led }

// Wait blocks until the batch resolves or ctx ends. Abandoning a batch
// (ctx ending first) unregisters this waiter; when the last waiter
// abandons, the batch accepts no new joiners and either leaves the queue
// on the spot (still waiting) or has its context cancelled with ctx's
// cause (running), so a wire call nobody is waiting for stops — the same
// behavior an un-dispatched call had under its search's context.
func (t *Ticket) Wait(ctx context.Context) (any, error) {
	select {
	case <-t.b.done:
		return t.b.val, t.b.err
	case <-ctx.Done():
		t.abandon.Do(func() { t.q.abandon(t.b, context.Cause(ctx)) })
		return nil, ctx.Err()
	}
}

// unresolved is what a ticket reports until its batch resolves: no
// timings, no fanout.
var unresolved batch

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

// RunFor returns the wire call's own duration — shared by every waiter
// of a batch — or 0 if the batch has not resolved or never ran.
func (t *Ticket) RunFor() time.Duration { return t.outcome().ran }

// Fanout returns how many waiters the resolved batch served (at least 1;
// 0 until the batch resolves). A fanout above 1 means the result value
// is shared: consumers that mutate it must copy first.
func (t *Ticket) Fanout() int { return t.outcome().fanout }
