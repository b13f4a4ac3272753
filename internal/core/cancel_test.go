package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/dispatch"
	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
)

// trap cancels the armed search once, from inside the named stage.
type trap struct {
	mu     sync.Mutex
	stage  string
	cancel context.CancelFunc
	fired  bool
}

func (tp *trap) arm(cancel context.CancelFunc) {
	tp.mu.Lock()
	tp.cancel = cancel
	tp.mu.Unlock()
}

// spring cancels the armed search if stage is the trap's and it has not
// fired yet, and reports whether it did.
func (tp *trap) spring(stage string) bool {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.stage != stage || tp.cancel == nil || tp.fired {
		return false
	}
	tp.fired = true
	tp.cancel()
	return true
}

// trapConn springs the trap inside a harvest or on the wire, then blocks
// until its own context ends, as a hung source would.
type trapConn struct {
	client.Conn
	tp *trap
}

func (c trapConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	if c.tp.spring("harvest") {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return c.Conn.Metadata(ctx)
}

func (c trapConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	if c.tp.spring("wire") {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return c.Conn.Query(ctx, q)
}

// trapSelector springs the trap while ranking sources, or — for the
// translate stage — as ranking returns, after which translation runs.
// Translation runs no caller code, so that is as far into it as a
// cancellation can reach.
type trapSelector struct {
	gloss.VSum
	tp *trap
}

func (s trapSelector) Rank(q *query.Query, infos []gloss.SourceInfo) []gloss.Ranked {
	s.tp.spring("select")
	defer s.tp.spring("translate")
	return s.VSum.Rank(q, infos)
}

// trapMerger springs the trap while merging.
type trapMerger struct {
	merge.TermStats
	tp *trap
}

func (m trapMerger) Merge(q *query.Query, in []merge.SourceResult) []*result.Document {
	m.tp.spring("merge")
	return m.TermStats.Merge(q, in)
}

// TestCancelAtEveryStage cancels a search inside each of its steps —
// harvest (a blocked metadata fetch), select (the selector), translate,
// fan-out (a sub-query queued behind a busy worker, and one on the
// wire) and merge (the merger) — for Search and SearchStream, with and
// without the answer cache. Whatever the cancelled search returns, it must
// leave nothing behind: no goroutine, no busy or queued dispatch slot, no
// cache entry of its own (the next identical search runs its own fill) and
// no unanswered breaker admission.
func TestCancelAtEveryStage(t *testing.T) {
	stages := []string{"harvest", "select", "translate", "queued", "wire", "merge"}
	for _, stage := range stages {
		for _, stream := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				name := stage
				if stream {
					name += "/stream"
				}
				if cached {
					name += "/cache"
				}
				t.Run(name, func(t *testing.T) { cancelAt(t, stage, stream, cached) })
			}
		}
	}
}

func cancelAt(t *testing.T, stage string, stream, cached bool) {
	srcs := []string{"a", "b"}
	sources := make(map[string]client.Conn, len(srcs))
	for _, id := range srcs {
		sources[id] = client.NewLocalConn(oneDocSource(t, id), nil)
	}
	baseline := runtime.NumGoroutine()

	tp := &trap{stage: stage}
	gate := &fakeGate{}
	opts := Options{
		Selector: trapSelector{tp: tp}, Merger: trapMerger{tp: tp},
		Timeout: 5 * time.Second, Breaker: gate, SourceConcurrency: 1,
	}
	clk := newTestClock()
	if cached {
		// The cache's clock jumps past every entry's lifetime and stale
		// window before the next search (a degraded answer lives for the
		// floor, any other for the TTL), so that search must miss and run
		// its own fill.
		opts.Cache = qcache.New(qcache.Config{TTL: time.Minute, Now: clk.now})
	}
	ms := New(opts)
	for _, id := range srcs {
		ms.Add(trapConn{Conn: sources[id], tp: tp})
	}
	ctx := context.Background()
	if stage != "harvest" {
		if err := ms.Harvest(ctx); err != nil {
			t.Fatal(err)
		}
	}
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	search := func(ctx context.Context, tr *obs.Trace) (*Answer, error) {
		if !stream {
			return ms.Search(ctx, q, WithTrace(tr))
		}
		return ms.SearchStream(ctx, q, func(StreamEvent) error { return nil }, WithTrace(tr))
	}

	// The queued case holds source a's only worker, so its sub-query waits
	// in the dispatch queue until the search gives up on it.
	release := make(chan struct{})
	if stage == "queued" {
		if _, err := ms.Dispatcher().Submit(ctx, "a", "busy", dispatch.Limits{}, func(context.Context) (any, error) {
			<-release
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tp.arm(cancel)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = search(cctx, &obs.Trace{}) // failed or degraded: only what it leaves behind matters
	}()
	if stage == "queued" {
		waitForStat(t, ms, "a", func(st dispatch.QueueStat) bool { return st.Depth == 1 })
		tp.spring("queued")
	}
	<-done
	close(release)
	if !tp.fired {
		t.Fatalf("the search never reached the %s stage", stage)
	}

	for _, st := range ms.DispatchStats() {
		waitForStat(t, ms, st.Source, func(st dispatch.QueueStat) bool { return st.Inflight == 0 && st.Depth == 0 })
	}
	waitGoroutines(t, baseline, "after the cancelled search")

	clk.advance(time.Hour)
	var tr obs.Trace
	ans, err := search(ctx, &tr)
	if err != nil || len(ans.Documents) == 0 {
		t.Fatalf("the next search: %v, %v", ans, err)
	}
	if cached {
		if out, _ := tr.Snapshot().Find("cache").Attr("outcome"); out != qcache.Filled.String() {
			t.Errorf("the next identical search was served %q, want it to run its own fill", out)
		}
	}
	gate.balanced(t)
	ms.Close()
	waitGoroutines(t, baseline, "closed")
}

// TestBreakerSettledWhenNothingSurvivesTranslation: a source whose
// translation leaves nothing to send never reaches the wire, so its
// sub-query takes no breaker admission; the one its harvest took is
// answered, so no half-open probe is left holding its circuit shut.
func TestBreakerSettledWhenNothingSurvivesTranslation(t *testing.T) {
	gate := &fakeGate{}
	ms := New(Options{Timeout: 5 * time.Second, Breaker: gate})
	defer ms.Close()
	conn := &swapConn{Conn: client.NewLocalConn(oneDocSource(t, "s"), nil)}
	conn.set(time.Time{}, []string{"databases"}) // the query's only word is a stop word
	ms.Add(conn)
	_, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`))
	if err == nil || !strings.Contains(err.Error(), "nothing of the query survives") {
		t.Fatalf("search = %v, want the translation failure", err)
	}
	if admits, _ := gate.counts("s"); admits != 1 {
		t.Fatalf("breaker admissions = %d, want 1 (the harvest)", admits)
	}
	gate.balanced(t)
}
