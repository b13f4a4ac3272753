package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// scriptedBatchConn is a batch-capable conn over a real local source:
// the first QueryBatch parks until release closes (holding the single
// dispatch worker so later queries pile into one drain), and any item
// whose ranking mentions "brokenterm" fails in-band.
type scriptedBatchConn struct {
	client.Conn
	inner      client.BatchConn
	release    chan struct{}
	parkedOnce sync.Once
	parked     chan struct{}
	wireCalls  atomic.Int64
	maxItems   atomic.Int64
}

func (c *scriptedBatchConn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	c.wireCalls.Add(1)
	for {
		old := c.maxItems.Load()
		if int64(len(qs)) <= old || c.maxItems.CompareAndSwap(old, int64(len(qs))) {
			break
		}
	}
	var parkedNow bool
	c.parkedOnce.Do(func() { parkedNow = true })
	if parkedNow {
		close(c.parked)
		select {
		case <-c.release:
		case <-ctx.Done():
		}
	}
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	for i, q := range qs {
		if raw, err := q.Marshal(); err == nil && strings.Contains(string(raw), "brokenterm") {
			errs[i] = errTest("scripted item failure")
			continue
		}
		results[i], errs[i] = c.inner.Query(ctx, q)
	}
	return results, errs
}

type errTest string

func (e errTest) Error() string { return string(e) }

// errGate is a BreakerGate that distinguishes success records, failure
// records and probe-slot releases.
type errGate struct {
	mu       sync.Mutex
	failures int
	oks      int
	releases int
}

func (g *errGate) Allow(string) bool { return true }
func (g *errGate) Record(_ string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.failures++
	} else {
		g.oks++
	}
}
func (g *errGate) Release(string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.releases++
}
func (g *errGate) counts() (failures, oks, releases int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failures, g.oks, g.releases
}

// TestBatchPartialFailureBreakerAccounting drives distinct concurrent
// searches into ONE multiplexed wire call at a single source and pins
// the per-wire-call breaker contract: of the two batch items that fail
// on the shared call, exactly one Records a failure (the primary fault)
// and the other Releases its admission claim; successful members still
// Record success. Run it with -race: the fan-back path touches every
// waiter's outcome concurrently.
func TestBatchPartialFailureBreakerAccounting(t *testing.T) {
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
		Body: "databases alphaterm brokenterm gammaterm crashterm",
	}); err != nil {
		t.Fatal(err)
	}
	gate := &errGate{}
	ms := New(Options{SourceConcurrency: 1, QueueDepth: 16, Breaker: gate, Timeout: 5 * time.Second})
	defer ms.Close()
	var inner client.BatchConn = client.NewLocalConn(s, nil)
	conn := &scriptedBatchConn{
		Conn:    inner,
		inner:   inner,
		release: make(chan struct{}),
		parked:  make(chan struct{}),
	}
	ms.Add(conn)
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}

	// Decoy search parks the only worker inside its wire call.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := ms.Search(ctx, rankingQuery(t, `list((body-of-text "databases"))`)); err != nil {
			t.Errorf("decoy search: %v", err)
		}
	}()
	select {
	case <-conn.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("decoy query never reached the conn")
	}

	// Three distinct queries pile up behind the parked worker; two of
	// them ("brokenterm", "crashterm"... only brokenterm-marked items
	// fail) — craft exactly two failing items and one success.
	terms := []string{"alphaterm brokenterm", "brokenterm gammaterm", "gammaterm"}
	wantErr := []bool{true, true, false}
	searchErrs := make([]error, len(terms))
	for i, term := range terms {
		parts := strings.Fields(term)
		expr := `list(`
		for _, p := range parts {
			expr += `(body-of-text "` + p + `") `
		}
		expr = strings.TrimSpace(expr) + `)`
		q := rankingQuery(t, expr)
		wg.Add(1)
		go func(i int, q *query.Query) {
			defer wg.Done()
			_, searchErrs[i] = ms.Search(ctx, q)
		}(i, q)
	}
	// Wait until all three sit in the source's queue, then free the
	// worker: the drain multiplexes them into one wire call.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		depth := int64(0)
		for _, st := range ms.DispatchStats() {
			if st.Source == "S" {
				depth = st.Depth
			}
		}
		if depth >= 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(conn.release)
	wg.Wait()

	if got := conn.maxItems.Load(); got != 3 {
		t.Fatalf("largest wire call carried %d items, want 3 — drain did not multiplex", got)
	}
	// A one-source fleet surfaces a failed batch item as the search's own
	// error; per-item isolation means the healthy sibling still succeeds.
	for i, err := range searchErrs {
		if wantErr[i] && (err == nil || !strings.Contains(err.Error(), "scripted item failure")) {
			t.Errorf("search %d err = %v, want scripted item failure", i, err)
		}
		if !wantErr[i] && err != nil {
			t.Errorf("search %d err = %v, want success", i, err)
		}
	}
	failures, oks, releases := gate.counts()
	// Two members of one wire call failed: ONE Records the failure, the
	// other Releases. The successful member and the decoy Record success.
	if failures != 1 {
		t.Errorf("breaker failure records = %d, want 1 (one primary fault per wire call)", failures)
	}
	if releases != 1 {
		t.Errorf("breaker releases = %d, want 1 (the non-primary failed member)", releases)
	}
	if oks != 2 {
		t.Errorf("breaker success records = %d, want 2 (decoy + healthy member)", oks)
	}
}

// lyingBatchConn is a BatchConn whose QueryBatch breaks the
// index-aligned contract the way lie says.
type lyingBatchConn struct {
	client.BatchConn
	lie func(rs []*result.Results, errs []error) ([]*result.Results, []error)
}

func (c lyingBatchConn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	return c.lie(c.BatchConn.QueryBatch(ctx, qs))
}

// TestBatchContractViolationIsPerSourceError: a conn that returns a slot
// with neither a result nor an error, or slices of the wrong length,
// fails as that source's outcome — the fan-out goroutine must not meet
// the nil result — while the other sources still answer.
func TestBatchContractViolationIsPerSourceError(t *testing.T) {
	lies := map[string]func([]*result.Results, []error) ([]*result.Results, []error){
		"nil-nil-slot":  func(rs []*result.Results, errs []error) ([]*result.Results, []error) { rs[0] = nil; return rs, errs },
		"short-results": func(rs []*result.Results, errs []error) ([]*result.Results, []error) { return rs[:0], errs },
		"short-errors":  func(rs []*result.Results, errs []error) ([]*result.Results, []error) { return rs, nil },
		"long-both": func(rs []*result.Results, errs []error) ([]*result.Results, []error) {
			return append(rs, rs[0]), append(errs, nil)
		},
	}
	for name, lie := range lies {
		t.Run(name, func(t *testing.T) {
			ms, srcs := fleet(t)
			defer ms.Close()
			ms.Add(lyingBatchConn{BatchConn: client.NewLocalConn(srcs["cs"], nil), lie: lie})
			ans, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`))
			if err != nil {
				t.Fatalf("search failed outright: %v", err)
			}
			if oc := ans.PerSource["cs"]; oc == nil || oc.Err == nil {
				t.Errorf("cs outcome = %+v, want a per-source error", oc)
			}
			if oc := ans.PerSource["archive"]; oc == nil || oc.Err != nil || len(ans.Documents) == 0 {
				t.Errorf("archive outcome = %+v with %d merged documents, want a clean answer", oc, len(ans.Documents))
			}
		})
	}
}
