// Chain-composition tests live in an external test package: they compose
// the retrying and observing middlewares under the metasearch core, and
// all of those import client (an internal test file would cycle).
package client_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/dispatch"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/obs"
	"starts/internal/query"
	"starts/internal/resilient"
	"starts/internal/result"
	"starts/internal/source"
)

// wireLeaf is a leaf over a real in-process source, counting the Query
// calls that reach it and the most that ran at once. The first call
// parks until release closes when release is non-nil, holding the single
// dispatch worker so later searches queue behind it.
type wireLeaf struct {
	client.Conn
	calls, inflight, maxInflight atomic.Int64
	release                      chan struct{}
	parked                       chan struct{}
	parkOnce                     sync.Once
}

func (l *wireLeaf) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	l.calls.Add(1)
	n := l.inflight.Add(1)
	defer l.inflight.Add(-1)
	for {
		old := l.maxInflight.Load()
		if n <= old || l.maxInflight.CompareAndSwap(old, n) {
			break
		}
	}
	if l.release != nil {
		l.parkOnce.Do(func() {
			close(l.parked)
			select {
			case <-l.release:
			case <-ctx.Done():
			}
		})
	}
	return l.Conn.Query(ctx, q)
}

// deployed builds the only arrangement there is now: a metasearcher
// whose own dispatcher sits over the chain observe(retry(leaf)).
func deployed(t *testing.T, leaf *wireLeaf, reg *obs.Registry) *core.Metasearcher {
	t.Helper()
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New("S", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&index.Document{
		Linkage: "http://s/1", Title: "everything",
		Body: "databases decoy alpha beta gamma",
	}); err != nil {
		t.Fatal(err)
	}
	leaf.Conn = client.NewLocalConn(s, nil)
	policy := resilient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}
	ms := core.New(core.Options{SourceConcurrency: 1, QueueDepth: 16, Metrics: reg, Timeout: 5 * time.Second})
	t.Cleanup(ms.Close)
	ms.Add(client.Chain(leaf,
		func(c client.Conn) client.Conn { return resilient.Wrap(c, policy, nil) },
		func(c client.Conn) client.Conn { return obs.WrapConn(c, reg) },
	))
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ms
}

func termQuery(t *testing.T, term string) *query.Query {
	t.Helper()
	q := query.New()
	r, err := query.ParseRanking(`list((body-of-text "` + term + `"))`)
	if err != nil {
		t.Fatal(err)
	}
	q.Ranking = r
	return q
}

// queueStat reads S's dispatch counters. The harvest in deployed already
// went through the dispatcher as one submission and one wire call, so
// tests compare against the stat they took before searching.
func queueStat(ms *core.Metasearcher) dispatch.QueueStat {
	for _, st := range ms.DispatchStats() {
		if st.Source == "S" {
			return st
		}
	}
	return dispatch.QueueStat{}
}

func queryCalls(reg *obs.Registry) int64 {
	return reg.Histogram(obs.L("starts_conn_seconds", "source", "S", "op", "query")).Count()
}

// TestDeployedChainOrder pins the order that is deployed: core's
// dispatcher over observe(retry(leaf)). The dispatcher is the only layer
// that queues and coalesces, and every layer below it sees one Query per
// distinct sub-query. There is no per-source cache layer: STARTS shares
// no answers below the broker, so the merged-answer cache in core.Search
// is the only cache.
func TestDeployedChainOrder(t *testing.T) {
	ctx := context.Background()

	// Park the single worker on a decoy search, queue three distinct
	// searches behind it, then open the gate: each queued sub-query is its
	// own leaf Query, one at a time on the one worker.
	t.Run("one-leaf-query-per-sub-query", func(t *testing.T) {
		leaf := &wireLeaf{release: make(chan struct{}), parked: make(chan struct{})}
		reg := obs.NewRegistry()
		ms := deployed(t, leaf, reg)
		base := queueStat(ms)
		var wg sync.WaitGroup
		search := func(term string) {
			defer wg.Done()
			if _, err := ms.Search(ctx, termQuery(t, term)); err != nil {
				t.Errorf("search %q: %v", term, err)
			}
		}
		wg.Add(1)
		go search("decoy")
		select {
		case <-leaf.parked:
		case <-time.After(5 * time.Second):
			t.Fatal("decoy search never reached the leaf")
		}
		for _, term := range []string{"alpha", "beta", "gamma"} {
			wg.Add(1)
			go search(term)
		}
		for deadline := time.Now().Add(5 * time.Second); queueStat(ms).Depth < 3 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(leaf.release)
		wg.Wait()

		if calls, max := leaf.calls.Load(), leaf.maxInflight.Load(); calls != 4 || max != 1 {
			t.Errorf("leaf saw %d queries, at most %d at once; want 4 (decoy + 3), one at a time", calls, max)
		}
		if got := queryCalls(reg); got != 4 {
			t.Errorf("observed query calls = %d, want 4", got)
		}
		if got := queueStat(ms).WireCalls - base.WireCalls; got != 4 {
			t.Errorf("dispatch wire calls = %d, want 4", got)
		}
	})

	// N concurrent identical searches coalesce at the dispatcher into ONE
	// call down the chain — one observation, one leaf wire call.
	t.Run("identical-searches-coalesce-above-the-chain", func(t *testing.T) {
		const callers = 8
		leaf := &wireLeaf{release: make(chan struct{}), parked: make(chan struct{})}
		reg := obs.NewRegistry()
		ms := deployed(t, leaf, reg)
		base := queueStat(ms)
		errs := make(chan error, callers)
		for i := 0; i < callers; i++ {
			go func() {
				_, err := ms.Search(ctx, termQuery(t, "databases"))
				errs <- err
			}()
		}
		// Release the gate only once all callers sit on the batch: one
		// led, the rest joined while its wire call was parked.
		for deadline := time.Now().Add(5 * time.Second); queueStat(ms).Submitted-base.Submitted < callers && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(leaf.release)
		for i := 0; i < callers; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("caller %d: %v", i, err)
			}
		}
		if got := leaf.calls.Load(); got != 1 {
			t.Errorf("leaf queries = %d, want 1 for %d concurrent identical searches", got, callers)
		}
		if got := queryCalls(reg); got != 1 {
			t.Errorf("observed query calls = %d, want 1", got)
		}
		if got := queueStat(ms).Batched - base.Batched; got != callers-1 {
			t.Errorf("batched = %d, want %d", got, callers-1)
		}
	})
}
