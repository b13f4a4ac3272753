package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/dispatch"
	"starts/internal/query"
	"starts/internal/result"
)

// slowLocal is an in-process conn whose queries take delay (or until
// their context ends) and announce themselves on entered.
type slowLocal struct {
	*client.LocalConn
	delay   time.Duration
	entered chan struct{}
}

func (c slowLocal) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	select {
	case <-time.After(c.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return c.LocalConn.Query(ctx, q)
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

// TestSearchesLeaveNoGoroutines is dispatch's idle-dispatcher check
// lifted to whole searches: concurrent searches over slow sources, one
// search cancelled mid-fan-out, and one waiter that abandons a
// coalesced sub-query leave no goroutine behind — before Close, and
// again after it.
func TestSearchesLeaveNoGoroutines(t *testing.T) {
	_, srcs := fleet(t)
	baseline := runtime.NumGoroutine()
	ms := New(Options{Timeout: 5 * time.Second})
	entered := make(chan struct{}, 1)
	for _, id := range []string{"cs", "garden", "archive"} {
		ms.Add(slowLocal{LocalConn: client.NewLocalConn(srcs[id], nil), delay: 100 * time.Millisecond, entered: entered})
	}
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}

	// Distinct searches, all the way through.
	var wg sync.WaitGroup
	for _, term := range []string{"databases", "compost", "archive", "metasearch"} {
		q := rankingQuery(t, `list((body-of-text "`+term+`"))`)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ms.Search(ctx, q); err != nil {
				t.Errorf("search: %v", err)
			}
		}()
	}
	wg.Wait()

	// One search cancelled while its sub-queries are on the wire.
	select { // a signal left over from the searches above
	case <-entered:
	default:
	}
	cctx, cancel := context.WithCancel(ctx)
	cq := rankingQuery(t, `list((body-of-text "distributed"))`)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = ms.Search(cctx, cq) // failed or degraded: only what it leaves behind matters
	}()
	<-entered
	cancel()
	<-done

	// One waiter abandons a sub-query it joined; the leader still finishes.
	q := rankingQuery(t, `list((body-of-text "compost"))`)
	base := dispatchStat(t, ms, "garden")
	lead := make(chan error, 1)
	go func() {
		_, err := ms.Search(ctx, q)
		lead <- err
	}()
	waitForStat(t, ms, "garden", func(st dispatch.QueueStat) bool { return st.Inflight > 0 })
	jctx, jcancel := context.WithCancel(ctx)
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		_, _ = ms.Search(jctx, q)
	}()
	waitForStat(t, ms, "garden", func(st dispatch.QueueStat) bool { return st.Batched > base.Batched })
	jcancel()
	<-joined
	if err := <-lead; err != nil {
		t.Errorf("leader after its joiner left: %v", err)
	}

	waitGoroutines(t, baseline, "searches done, not closed")
	ms.Close()
	waitGoroutines(t, baseline, "closed")
}
