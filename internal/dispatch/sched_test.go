package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAbandonedQueuedWorkFreesItsSlot pins that work nobody waits for
// stops counting against the depth bound the moment its last waiter
// leaves: with the only worker busy and both depth slots taken by
// submissions that are then abandoned, the queue reads empty and a live
// third submission is admitted.
func TestAbandonedQueuedWorkFreesItsSlot(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	lim := Limits{Concurrency: 1, QueueDepth: 2}
	release, _ := occupy(t, d, "s", lim)
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	var queued []*Ticket
	for i := 0; i < 2; i++ {
		tk, err := d.Submit(ctx, "s", "", lim, noop)
		if err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		queued = append(queued, tk)
	}
	if st := stat(t, d, "s"); st.Depth != 2 {
		t.Fatalf("Depth = %d with two submissions waiting, want 2", st.Depth)
	}
	cancel()
	for i, tk := range queued {
		if _, err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned wait %d = %v, want context.Canceled", i, err)
		}
	}
	if st := stat(t, d, "s"); st.Depth != 0 || st.Cancelled != 2 {
		t.Errorf("after both waiters left: Depth = %d, Cancelled = %d, want 0 and 2", st.Depth, st.Cancelled)
	}
	if _, err := d.Submit(context.Background(), "s", "", lim, noop); err != nil {
		t.Fatalf("live submit behind abandoned work = %v, want admission", err)
	}
}

// waitGoroutines polls until the process holds no more goroutines than
// it did at baseline.
func waitGoroutines(t *testing.T, baseline int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want at most the baseline %d\n%s",
				when, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleDispatcherHoldsNoGoroutines pins that the dispatcher's
// goroutines are its workers and nothing else: once every ticket has
// resolved, a dispatcher that served many sources (a running blocker
// and queued work behind it on each) holds none — before Close — and a
// task abandoned mid-run around a Close leaves none behind either.
func TestIdleDispatcherHoldsNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d := New(Config{})
	lim := Limits{Concurrency: 1, QueueDepth: 16}
	var tickets []*Ticket
	for s := 0; s < 8; s++ {
		source := fmt.Sprintf("s%d", s)
		release, blocker := occupy(t, d, source, lim)
		tickets = append(tickets, blocker)
		for i := 0; i < 4; i++ { // queued behind the blocker
			tk, err := d.Submit(context.Background(), source, "", lim, noop)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		close(release)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, baseline, "8 sources served, every ticket resolved, not closed")

	started := make(chan struct{})
	tk, err := d.Submit(context.Background(), "s0", "", lim, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning wait = %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseline, "closed, running task abandoned")
}

// schedSource is the scheduler test's oracle for one source. allowed is
// the source's Concurrency: the bound on its concurrent runs.
type schedSource struct {
	name string

	mu       sync.Mutex
	allowed  int
	cur      int
	started  []int // seqs in task start order ("fifo" source only)
	nextSeq  int
	submitMu sync.Mutex // serialises submissions so seq order is submission order
}

// schedItem is one submission's payload: want is the value its ticket
// must resolve with (shared by every submission of one key), id is
// unique per submission, seq is its submission order on its source.
type schedItem struct {
	src           *schedSource
	id, seq, want int
}

// TestSchedulerInvariants drives one dispatcher from many goroutines —
// keyed and unkeyed submissions, waiters that walk away, tasks that
// refuse while a flipping breaker is open — and checks what must hold whatever the interleaving: every
// ticket resolves (a second resolution would panic on the closed
// channel), no item runs twice, a ticket that succeeds carries its own
// item's value, runs per source stay within Concurrency, pickup is in
// submission order, and the counters add up.
func TestSchedulerInvariants(t *testing.T) {
	const (
		submitters = 8
		perWorker  = 120
	)
	var refuse atomic.Bool
	var refused [3]atomic.Int64 // tasks that refused, per source
	d := New(Config{Limits: Limits{Concurrency: 2, QueueDepth: 8}})
	defer d.Close()
	// "fifo" keeps Concurrency 1, so task start order is pickup order.
	sources := []*schedSource{{name: "fifo", allowed: 1}, {name: "a", allowed: 2}, {name: "b", allowed: 2}}
	fifoLim := Limits{Concurrency: 1}

	var ran sync.Map // item id -> struct{}: set when the item's task starts
	task := func(si int, it *schedItem) Task {
		return func(context.Context) (any, error) {
			if refuse.Load() { // refused before the wire: no run
				refused[si].Add(1)
				return nil, ErrRefused
			}
			src := it.src
			src.mu.Lock()
			if src.cur++; src.cur > src.allowed {
				t.Errorf("%s: %d concurrent runs, Concurrency allows %d", src.name, src.cur, src.allowed)
			}
			if _, dup := ran.LoadOrStore(it.id, struct{}{}); dup {
				t.Errorf("%s: item %d ran twice", src.name, it.id)
			}
			src.started = append(src.started, it.seq)
			src.mu.Unlock()
			time.Sleep(time.Duration(it.id*37%200) * time.Microsecond)
			src.mu.Lock()
			src.cur--
			src.mu.Unlock()
			return it.want, nil
		}
	}

	stop := make(chan struct{})
	var background sync.WaitGroup
	background.Add(1)
	go func() { // the breaker, opening briefly now and then
		defer background.Done()
		for {
			select {
			case <-stop:
				refuse.Store(false)
				return
			case <-time.After(2 * time.Millisecond):
				refuse.Store(true)
				time.Sleep(200 * time.Microsecond)
				refuse.Store(false)
			}
		}
	}()

	type submission struct {
		tk        *Ticket
		item      *schedItem
		abandoned bool
		err       error
		val       any
	}
	var (
		ids    atomic.Int64
		led    [3]atomic.Int64 // admitted leaders per source
		all    = make([][]*submission, submitters)
		workWG sync.WaitGroup
	)
	for w := 0; w < submitters; w++ {
		w := w
		workWG.Add(1)
		go func() {
			defer workWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				si := rng.Intn(len(sources))
				src := sources[si]
				it := &schedItem{src: src, id: int(ids.Add(1))}
				it.want = it.id
				key := ""
				if rng.Intn(4) == 0 {
					k := rng.Intn(3)
					key, it.want = fmt.Sprintf("key%d", k), -1-k
				}
				lim := Limits{}
				if src.name == "fifo" {
					lim = fifoLim
				}
				ctx, cancel := context.WithCancel(context.Background())
				sub := &submission{item: it, abandoned: rng.Intn(5) == 0}
				src.submitMu.Lock()
				src.nextSeq++
				it.seq = src.nextSeq
				sub.tk, sub.err = d.Submit(ctx, src.name, key, lim, task(si, it))
				src.submitMu.Unlock()
				if sub.err != nil {
					cancel()
					if !errors.Is(sub.err, ErrQueueFull) {
						t.Errorf("submit: %v", sub.err)
					}
					continue
				}
				if sub.tk.Led() {
					led[si].Add(1)
				}
				all[w] = append(all[w], sub)
				if sub.abandoned {
					time.AfterFunc(time.Duration(rng.Intn(300))*time.Microsecond, cancel)
				}
				sub.val, sub.err = sub.tk.Wait(ctx)
				cancel()
			}
		}()
	}
	workWG.Wait()
	close(stop)
	background.Wait()

	for _, subs := range all {
		for _, sub := range subs {
			select {
			case <-sub.tk.b.done:
			case <-time.After(5 * time.Second):
				t.Fatalf("ticket for item %d never resolved", sub.item.id)
			}
			switch {
			case sub.err == nil:
				if sub.val != sub.item.want {
					t.Errorf("item %d resolved with %v, want %d", sub.item.id, sub.val, sub.item.want)
				}
			case errors.Is(sub.err, ErrRefused):
			case sub.abandoned && errors.Is(sub.err, context.Canceled):
			default:
				t.Errorf("item %d: %v", sub.item.id, sub.err)
			}
		}
	}
	fifo := sources[0]
	for i := 1; i < len(fifo.started); i++ {
		if fifo.started[i] <= fifo.started[i-1] {
			t.Fatalf("fifo: submission %d started after submission %d", fifo.started[i], fifo.started[i-1])
		}
	}
	for si, src := range sources {
		st := stat(t, d, src.name)
		if st.Depth != 0 || st.Inflight != 0 {
			t.Errorf("%s not quiescent: depth %d, inflight %d", src.name, st.Depth, st.Inflight)
		}
		if leaders := st.Submitted - st.Batched; leaders != led[si].Load() ||
			leaders != st.WireCalls+refused[si].Load()+st.Cancelled {
			t.Errorf("%s: %d leaders submitted (dispatcher says %d) but %d wire calls + %d refused + %d cancelled",
				src.name, led[si].Load(), leaders, st.WireCalls, refused[si].Load(), st.Cancelled)
		}
		if st.WireCalls == 0 {
			t.Errorf("%s: no work ran", src.name)
		}
	}
}
