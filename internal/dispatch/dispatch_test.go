package dispatch

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/obs"
)

// occupy parks d's single worker for source until release is closed,
// returning once the worker has picked the blocker up.
func occupy(t *testing.T, d *Dispatcher, source string, lim Limits) (release chan struct{}, done *Ticket) {
	t.Helper()
	release = make(chan struct{})
	started := make(chan struct{})
	tk, err := d.Submit(context.Background(), source, "", lim, func(context.Context) (any, error) {
		close(started)
		<-release
		return "blocker", nil
	})
	if err != nil {
		t.Fatalf("blocker submit: %v", err)
	}
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("worker never picked up the blocker")
	}
	return release, tk
}

// TestQueueFullShedsWithoutBlocking pins the shedding contract: with the
// worker busy and the queue at its depth bound, Submit returns a typed
// ErrQueueFull immediately instead of blocking the caller.
func TestQueueFullShedsWithoutBlocking(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	lim := Limits{Concurrency: 1, QueueDepth: 1}
	release, _ := occupy(t, d, "s", lim)
	defer close(release)

	if _, err := d.Submit(context.Background(), "s", "", lim, noop); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	start := time.Now()
	_, err := d.Submit(context.Background(), "s", "", lim, noop)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit err = %v, want ErrQueueFull", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("shed submit blocked for %v", waited)
	}
	st := stat(t, d, "s")
	if st.QueueFull != 1 {
		t.Errorf("QueueFull = %d, want 1", st.QueueFull)
	}
	// Blocker running, one batch queued, shed submit net zero.
	if st.Depth != 1 {
		t.Errorf("Depth = %d, want 1", st.Depth)
	}
}

// TestAbandonedBatchLeavesPendingMap pins the repending contract: when
// the last waiter abandons a queued batch, the batch must leave the
// pending map with it, so a later identical submit starts a fresh batch
// instead of joining the dead one and inheriting its cancellation.
func TestAbandonedBatchLeavesPendingMap(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	lim := Limits{Concurrency: 1, QueueDepth: 4}
	release, _ := occupy(t, d, "s", lim)

	ctx, cancel := context.WithCancel(context.Background())
	tk, err := d.Submit(ctx, "s", "hot-key", lim, noop)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, werr := tk.Wait(ctx); !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", werr)
	}
	// The same key resubmitted by a live caller must lead a fresh batch,
	// not join the abandoned one and fail despite its own context being
	// fine.
	tk2, err := d.Submit(context.Background(), "s", "hot-key", lim, func(context.Context) (any, error) {
		return "fresh", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tk2.Led() {
		t.Error("second submit joined the abandoned batch instead of leading a fresh one")
	}
	close(release)
	v, werr := tk2.Wait(context.Background())
	if werr != nil || v != "fresh" {
		t.Fatalf("fresh batch = %v, %v; want \"fresh\", nil", v, werr)
	}
	if st := stat(t, d, "s"); st.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", st.Cancelled)
	}
}

// TestBatchCoalescing pins the batching contract: N waiters submitting
// the same key while a batch is pending share ONE wire call, every
// waiter sees its result, exactly one waiter led, and the joins are
// counter-verified both on the Snapshot and the metrics registry.
func TestBatchCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	d := New(Config{Metrics: reg})
	defer d.Close()
	lim := Limits{Concurrency: 1, QueueDepth: 4}
	release, _ := occupy(t, d, "s", lim)

	var wireCalls atomic.Int64
	const waiters = 8
	tickets := make([]*Ticket, waiters)
	for i := range tickets {
		tk, err := d.Submit(context.Background(), "s", "same-key", lim, func(context.Context) (any, error) {
			wireCalls.Add(1)
			return 42, nil
		})
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
		tickets[i] = tk
	}
	close(release) // let the worker reach the shared batch

	led := 0
	var wg sync.WaitGroup
	for i, tk := range tickets {
		wg.Add(1)
		go func(i int, tk *Ticket) {
			defer wg.Done()
			v, err := tk.Wait(context.Background())
			if err != nil || v != 42 {
				t.Errorf("waiter %d: v=%v err=%v", i, v, err)
			}
		}(i, tk)
		if tk.Led() {
			led++
		}
	}
	wg.Wait()
	if wireCalls.Load() != 1 {
		t.Errorf("wire calls = %d, want 1", wireCalls.Load())
	}
	if led != 1 {
		t.Errorf("leaders = %d, want exactly 1", led)
	}
	if n := tickets[0].Fanout(); n != waiters {
		t.Errorf("Fanout = %d, want %d", n, waiters)
	}
	st := stat(t, d, "s")
	if st.Batched != waiters-1 {
		t.Errorf("Batched = %d, want %d", st.Batched, waiters-1)
	}
	if got := reg.Counter(obs.L(obs.MDispatchBatched, "source", "s")).Value(); got != waiters-1 {
		t.Errorf("batched counter = %d, want %d", got, waiters-1)
	}
	// blocker + batch leader accepted, plus the joiners.
	if st.Submitted != waiters+1 {
		t.Errorf("Submitted = %d, want %d", st.Submitted, waiters+1)
	}
}

// TestQueuedCancellation pins abandonment of a queued-but-not-started
// batch: the waiter's context ends while the batch waits for a worker,
// Wait returns promptly with the context error, and the worker later
// skips the task entirely.
func TestQueuedCancellation(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	lim := Limits{Concurrency: 1, QueueDepth: 4}
	release, _ := occupy(t, d, "s", lim)

	var ran atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := d.Submit(ctx, "s", "", lim, func(context.Context) (any, error) {
		ran.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, werr := tk.Wait(ctx); !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", werr)
	}
	close(release)
	// A sentinel task behind the abandoned one proves the worker got past
	// it without running it.
	sentinel, err := d.Submit(context.Background(), "s", "", lim, noop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sentinel.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Errorf("abandoned task ran %d times", ran.Load())
	}
	if st := stat(t, d, "s"); st.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", st.Cancelled)
	}
}

// TestAbandonMidRunCancelsTask pins the other cancellation direction: a
// task already running when its last waiter walks away sees its batch
// context end, exactly as an un-dispatched wire call saw its search's
// context end.
func TestAbandonMidRunCancelsTask(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	started := make(chan struct{})
	stopped := make(chan struct{})
	tk, err := d.Submit(context.Background(), "s", "", Limits{Concurrency: 1}, func(tctx context.Context) (any, error) {
		close(started)
		<-tctx.Done()
		close(stopped)
		return nil, tctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, werr := tk.Wait(ctx); !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v", werr)
	}
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("task did not observe cancellation after its last waiter left")
	}
}

// TestBatchContextSpansItsWaiters: the context a shared task runs under
// reports the latest deadline its waiters brought (none once one brought
// none), outlives every waiter but the last, and ends with the last
// one's cause.
func TestBatchContextSpansItsWaiters(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	running := make(chan context.Context, 1)
	task := func(tctx context.Context) (any, error) {
		running <- tctx
		<-tctx.Done()
		return nil, tctx.Err()
	}
	type waiter struct {
		ctx    context.Context
		cancel context.CancelCauseFunc
		tk     *Ticket
	}
	// submit adds a waiter, which brings deadline unless it is zero.
	submit := func(deadline time.Time) *waiter {
		w := &waiter{}
		w.ctx, w.cancel = context.WithCancelCause(context.Background())
		if !deadline.IsZero() {
			var stop context.CancelFunc
			w.ctx, stop = context.WithDeadline(w.ctx, deadline)
			t.Cleanup(stop)
		}
		var err error
		if w.tk, err = d.Submit(w.ctx, "s", "k", Limits{}, task); err != nil {
			t.Fatal(err)
		}
		return w
	}
	leave := func(w *waiter, cause error) {
		w.cancel(cause)
		if _, err := w.tk.Wait(w.ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v", err)
		}
	}
	wantDeadline := func(tctx context.Context, want time.Time) {
		t.Helper()
		got, ok := tctx.Deadline()
		if ok != !want.IsZero() || ok && !got.Equal(want) {
			t.Errorf("task deadline = %v, %v; want %v", got, ok, want)
		}
	}
	hour := time.Now().Add(time.Hour).Round(0)
	leader := submit(hour)
	tctx := <-running
	wantDeadline(tctx, hour)
	later := submit(hour.Add(time.Hour))
	wantDeadline(tctx, hour.Add(time.Hour))
	earlier := submit(hour.Add(-time.Minute))
	wantDeadline(tctx, hour.Add(time.Hour))

	errLeader, errLast := errors.New("leader gave up"), errors.New("last waiter gave up")
	leave(leader, errLeader)
	leave(earlier, errLeader)
	if err := tctx.Err(); err != nil {
		t.Fatalf("the task ended (%v) while a waiter still waited", err)
	}
	leave(later, errLast)
	if got := context.Cause(tctx); got != errLast {
		t.Errorf("task cause = %v, want the last waiter's", got)
	}

	leader = submit(hour)
	tctx = <-running
	unbounded := submit(time.Time{})
	wantDeadline(tctx, time.Time{})
	leave(leader, nil)
	leave(unbounded, nil)
}

// TestInflightStaysBounded drives many distinct keys through a small
// worker pool and asserts — via the starts_dispatch_inflight gauge the
// tasks themselves sample — that concurrent wire calls never exceed the
// configured per-source bound.
func TestInflightStaysBounded(t *testing.T) {
	reg := obs.NewRegistry()
	d := New(Config{Metrics: reg})
	defer d.Close()
	const bound = 2
	lim := Limits{Concurrency: bound, QueueDepth: 64}
	gauge := reg.Gauge(obs.L(obs.MDispatchInflight, "source", "s"))

	var peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := d.Submit(context.Background(), "s", "", lim, func(context.Context) (any, error) {
				for {
					v := gauge.Value()
					p := peak.Load()
					if v <= p || peak.CompareAndSwap(p, v) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				return i, nil
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if _, err := tk.Wait(context.Background()); err != nil {
				t.Errorf("wait %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p < 1 || p > bound {
		t.Errorf("peak inflight = %d, want within [1, %d]", p, bound)
	}
	if v := gauge.Value(); v != 0 {
		t.Errorf("inflight after drain = %d, want 0", v)
	}
}

// TestTaskPanicContained pins panic containment: a panicking task
// resolves its batch with an error instead of killing the worker, and
// the worker keeps serving.
func TestTaskPanicContained(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	lim := Limits{Concurrency: 1}
	tk, err := d.Submit(context.Background(), "s", "", lim, func(context.Context) (any, error) {
		panic("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := tk.Wait(context.Background()); werr == nil {
		t.Fatal("Wait after panic = nil, want error")
	} else if got := werr.Error(); !strings.Contains(got, "panicked") || !strings.Contains(got, "boom") {
		t.Fatalf("panic error = %q", got)
	}
	// The worker survived: the next task runs normally.
	tk2, err := d.Submit(context.Background(), "s", "", lim, noop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk2.Wait(context.Background()); err != nil {
		t.Fatalf("worker dead after panic: %v", err)
	}
}

// TestCloseRejectsNewWork pins shutdown: Close drains queued work and
// later submissions fail with ErrClosed.
func TestCloseRejectsNewWork(t *testing.T) {
	d := New(Config{})
	tk, err := d.Submit(context.Background(), "s", "", Limits{}, noop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	if _, err := d.Submit(context.Background(), "s", "", Limits{}, noop); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestSnapshotShape pins Snapshot ordering and the effective limits it
// reports, including first-touch-wins queue sizing.
func TestSnapshotShape(t *testing.T) {
	d := New(Config{Limits: Limits{Concurrency: 3, QueueDepth: 7}})
	defer d.Close()
	for _, s := range []string{"b", "a"} {
		tk, err := d.Submit(context.Background(), s, "", Limits{}, noop)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// A later submit with different limits must not resize "a"'s queue.
	tk, err := d.Submit(context.Background(), "a", "", Limits{Concurrency: 9, QueueDepth: 9}, noop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := d.Snapshot()
	if len(stats) != 2 || stats[0].Source != "a" || stats[1].Source != "b" {
		t.Fatalf("snapshot = %+v, want sources [a b]", stats)
	}
	for _, st := range stats {
		if st.Workers != 3 || st.QueueCap != 7 {
			t.Errorf("%s limits = %d/%d, want 3/7", st.Source, st.Workers, st.QueueCap)
		}
		if st.Depth != 0 || st.Inflight != 0 {
			t.Errorf("%s not drained: %+v", st.Source, st)
		}
	}
}

func noop(context.Context) (any, error) { return nil, nil }

func stat(t *testing.T, d *Dispatcher, source string) QueueStat {
	t.Helper()
	for _, st := range d.Snapshot() {
		if st.Source == source {
			return st
		}
	}
	t.Fatalf("no queue for %q", source)
	return QueueStat{}
}

// TestQueueDepthClamped pins the hard-cap contract: QueueDepth has a
// plain upper bound, so an oversized request clamps instead of parking
// unbounded work behind one source.
func TestQueueDepthClamped(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	tk, err := d.Submit(context.Background(), "s", "", Limits{Concurrency: 1, QueueDepth: 1 << 20}, noop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := stat(t, d, "s"); st.QueueCap != queueHardCap {
		t.Errorf("QueueCap of an oversized queue = %d, want clamp to %d", st.QueueCap, queueHardCap)
	}
}

// slowRuns primes a source's recent-run ring with minRunSamples runs of
// roughly d each.
func slowRuns(t *testing.T, d *Dispatcher, source string, lim Limits, dur time.Duration) {
	t.Helper()
	for i := 0; i < minRunSamples; i++ {
		tk, err := d.Submit(context.Background(), source, "", lim, func(context.Context) (any, error) {
			time.Sleep(dur)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeadlineDoomedSubmit pins deadline-aware admission: once a
// source's observed median service time exceeds a submission's remaining
// budget — and the source is busy — Submit fails fast with ErrDeadline
// instead of queueing work doomed to time out.
func TestDeadlineDoomedSubmit(t *testing.T) {
	reg := obs.NewRegistry()
	d := New(Config{Metrics: reg})
	defer d.Close()
	lim := Limits{Concurrency: 1, QueueDepth: 8}
	slowRuns(t, d, "s", lim, 20*time.Millisecond)

	// Busy source: the doom check only fires with work in flight.
	release, blocker := occupy(t, d, "s", lim)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := d.Submit(ctx, "s", "", lim, noop)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("tight-budget submit err = %v, want ErrDeadline", err)
	}
	// A budget comfortably above the median is admitted.
	okCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	tk, err := d.Submit(okCtx, "s", "", lim, noop)
	if err != nil {
		t.Fatalf("roomy-budget submit err = %v, want admission", err)
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(okCtx); err != nil {
		t.Fatal(err)
	}
	st := stat(t, d, "s")
	if st.Doomed != 1 {
		t.Errorf("Doomed = %d, want 1", st.Doomed)
	}
	if st.TypicalRun < 10*time.Millisecond {
		t.Errorf("TypicalRun = %v, want >= 10ms from the primed runs", st.TypicalRun)
	}
	if got := reg.Counter(obs.L(obs.MDispatchDoomed, "source", "s")).Value(); got != 1 {
		t.Errorf("doomed counter = %d, want 1", got)
	}
}

// TestDeadlineIdleProbeBypass pins the recovery path: a source with a
// slow history but nothing in flight admits even a tight-budget
// submission, so probes keep refreshing the estimate after the source
// recovers instead of the history locking it out forever.
func TestDeadlineIdleProbeBypass(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	lim := Limits{Concurrency: 1, QueueDepth: 8}
	slowRuns(t, d, "s", lim, 20*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	tk, err := d.Submit(ctx, "s", "", lim, noop) // idle: inflight == 0
	if err != nil {
		t.Fatalf("idle-source submit err = %v, want admission (probe bypass)", err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := stat(t, d, "s"); st.Doomed != 0 {
		t.Errorf("Doomed = %d, want 0", st.Doomed)
	}
}

// TestDeadlineNoEstimateAdmits pins that the doom check stays out of the
// way before minRunSamples observations exist.
func TestDeadlineNoEstimateAdmits(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	lim := Limits{Concurrency: 1, QueueDepth: 8}
	release, blocker := occupy(t, d, "s", lim)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// Busy source, tight budget, but only one run ever: admit.
	tk, err := d.Submit(ctx, "s", "", lim, noop)
	if err != nil {
		t.Fatalf("no-estimate submit err = %v, want admission", err)
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("admitted task: %v", err)
	}
	if st := stat(t, d, "s"); st.Doomed != 0 {
		t.Errorf("Doomed = %d, want 0", st.Doomed)
	}
}
