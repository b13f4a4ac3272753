package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/dispatch"
	"starts/internal/obs"
	"starts/internal/query"
	"starts/internal/result"
)

// gateConn harvests like failingConn but parks every Query until release
// closes, counting wire calls — the knob that lets tests hold a batch
// in flight while more searches pile onto it.
type gateConn struct {
	failingConn
	calls   atomic.Int64
	release chan struct{}
}

func (g *gateConn) Query(ctx context.Context, _ *query.Query) (*result.Results, error) {
	g.calls.Add(1)
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &result.Results{}, nil
}

func dispatchStat(t *testing.T, ms *Metasearcher, source string) dispatch.QueueStat {
	t.Helper()
	for _, st := range ms.DispatchStats() {
		if st.Source == source {
			return st
		}
	}
	return dispatch.QueueStat{}
}

// waitForStat polls the source's dispatch stats until cond holds,
// failing the test after two seconds.
func waitForStat(t *testing.T, ms *Metasearcher, source string, cond func(dispatch.QueueStat) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond(dispatchStat(t, ms, source)) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("dispatch stats never reached the expected state: %+v", dispatchStat(t, ms, source))
}

// TestCrossSearchCoalescing pins the headline dispatch win: concurrent
// searches sending the same translated sub-query to the same source
// share ONE wire call, and each still gets a complete answer.
func TestCrossSearchCoalescing(t *testing.T) {
	ms := New(Options{Timeout: 5 * time.Second})
	defer ms.Close()
	g := &gateConn{failingConn: failingConn{id: "g"}, release: make(chan struct{})}
	ms.Add(g)
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := dispatchStat(t, ms, "g")

	const searches = 4
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	var wg sync.WaitGroup
	errs := make([]error, searches)
	for i := 0; i < searches; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = ms.Search(context.Background(), q)
		}()
	}
	// All four submissions land on g's queue — one leads, three join the
	// pending batch — while the single wire call sits parked on the gate.
	waitForStat(t, ms, "g", func(st dispatch.QueueStat) bool {
		return st.Submitted-base.Submitted == searches
	})
	close(g.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("wire calls = %d, want 1 for %d identical searches", got, searches)
	}
	if st := dispatchStat(t, ms, "g"); st.Batched-base.Batched != searches-1 {
		t.Errorf("batched = %d, want %d", st.Batched-base.Batched, searches-1)
	}
}

// TestQueueFullSurfacesInOutcome pins shedding end to end: with a
// one-worker, one-slot queue saturated by gated searches, an extra
// distinct search is refused with ErrQueueFull in its per-source
// outcome instead of waiting.
func TestQueueFullSurfacesInOutcome(t *testing.T) {
	ms := New(Options{
		Timeout:           5 * time.Second,
		SourceConcurrency: 1,
		QueueDepth:        1,
	})
	defer ms.Close()
	g := &gateConn{failingConn: failingConn{id: "g"}, release: make(chan struct{})}
	ms.Add(g)
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Two distinct queries: one occupies the single worker, one fills the
	// single queue slot. The second is submitted only once the first is
	// in flight — queued together, one drain would carry both in a single
	// wire call and leave the queue empty.
	var wg sync.WaitGroup
	search := func(text string) {
		defer wg.Done()
		_, _ = ms.Search(context.Background(), ms.mustQuery(t, text))
	}
	wg.Add(1)
	go search("databases")
	waitForStat(t, ms, "g", func(st dispatch.QueueStat) bool { return st.Inflight == 1 })
	wg.Add(1)
	go search("metasearch")
	waitForStat(t, ms, "g", func(st dispatch.QueueStat) bool {
		return st.Inflight == 1 && st.Depth == 1
	})

	ans, err := ms.Search(context.Background(), ms.mustQuery(t, "ranking"))
	close(g.release)
	wg.Wait()
	if err != nil {
		// The only source shed, so Search reports total failure — that
		// error must still be the typed one.
		if !errors.Is(err, dispatch.ErrQueueFull) {
			t.Fatalf("search err = %v, want ErrQueueFull", err)
		}
	} else if oc := ans.PerSource["g"]; oc == nil || !errors.Is(oc.Err, dispatch.ErrQueueFull) {
		t.Fatalf("outcome = %+v, want ErrQueueFull", oc)
	}
	if st := dispatchStat(t, ms, "g"); st.QueueFull == 0 {
		t.Error("QueueFull counter never moved")
	}
}

// TestBreakerReleasedWhenCallSkipsWire pins the probe-slot bookkeeping
// between the breaker and the dispatch layer: a breaker-admitted call
// that never produces its own wire outcome — it coalesced onto another
// search's batch, or was shed with ErrQueueFull — must Release its claim
// instead of Recording, so a half-open circuit cannot get stuck waiting
// on feedback that will never come.
func TestBreakerReleasedWhenCallSkipsWire(t *testing.T) {
	ms := New(Options{Timeout: 5 * time.Second})
	defer ms.Close()
	g := &gateConn{failingConn: failingConn{id: "g"}, release: make(chan struct{})}
	ms.Add(g)
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	gate := &fakeGate{}
	ms.opts.Breaker = gate
	base := dispatchStat(t, ms, "g")

	const searches = 4
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	var wg sync.WaitGroup
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ms.Search(context.Background(), q); err != nil {
				t.Errorf("search: %v", err)
			}
		}()
	}
	waitForStat(t, ms, "g", func(st dispatch.QueueStat) bool {
		return st.Batched-base.Batched == searches-1
	})
	close(g.release)
	wg.Wait()

	// One leader observed the shared wire call; the three joiners must
	// have released their claims, not recorded nor vanished.
	if rec, rel := gate.counts("g"); rec != 1 || rel != searches-1 {
		t.Errorf("records/releases = %d/%d, want 1/%d", rec, rel, searches-1)
	}
}

// mustQuery builds a one-term ranking query inline; hung off the
// metasearcher only to keep call sites short.
func (m *Metasearcher) mustQuery(t *testing.T, term string) *query.Query {
	t.Helper()
	return rankingQuery(t, `list((body-of-text "`+term+`"))`)
}

// TestDispatchInflightBounded pins the acceptance gauge through the full
// stack: distinct concurrent searches against a SourceConcurrency-2
// source never push starts_dispatch_inflight past 2.
func TestDispatchInflightBounded(t *testing.T) {
	reg := obs.NewRegistry()
	ms := New(Options{
		Timeout:           5 * time.Second,
		SourceConcurrency: 2,
		Metrics:           reg,
	})
	defer ms.Close()
	gauge := reg.Gauge(obs.L(obs.MDispatchInflight, "source", "s"))
	var peak atomic.Int64
	ms.Add(&samplingConn{failingConn: failingConn{id: "s"}, gauge: gauge, peak: &peak})
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}

	terms := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var wg sync.WaitGroup
	for _, term := range terms {
		term := term
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ms.Search(context.Background(), ms.mustQuery(t, term)); err != nil {
				t.Errorf("search %q: %v", term, err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p < 1 || p > 2 {
		t.Errorf("peak inflight = %d, want within [1, 2]", p)
	}
}

// samplingConn records the inflight gauge's peak from inside the wire
// call, where the gauge must already count this call.
type samplingConn struct {
	failingConn
	gauge *obs.Gauge
	peak  *atomic.Int64
}

func (s *samplingConn) Query(context.Context, *query.Query) (*result.Results, error) {
	for {
		v := s.gauge.Value()
		p := s.peak.Load()
		if v <= p || s.peak.CompareAndSwap(p, v) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	return &result.Results{}, nil
}
