package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/meta"
	"starts/internal/resilient"
	"starts/internal/source"
)

// toggleConn fails harvesting (metadata + summary) while down, leaving
// queries untouched — the shape of a source whose admin endpoint broke
// but whose query endpoint still works.
type toggleConn struct {
	client.Conn
	down atomic.Bool
}

func (c *toggleConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	if c.down.Load() {
		return nil, errors.New("metadata endpoint down")
	}
	return c.Conn.Metadata(ctx)
}

func (c *toggleConn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	if c.down.Load() {
		return nil, errors.New("summary endpoint down")
	}
	return c.Conn.Summary(ctx)
}

func TestStaleIfErrorHarvesting(t *testing.T) {
	clock := time.Date(1996, 6, 1, 0, 0, 0, 0, time.UTC)
	ms := New(Options{Now: func() time.Time { return clock }})
	eng, _ := engine.New(engine.NewVectorConfig())
	s, _ := source.New("S", eng)
	if err := s.Add(&index.Document{
		Linkage: "http://s/1", Title: "databases", Body: "distributed databases",
	}); err != nil {
		t.Fatal(err)
	}
	s.Expires = clock.Add(24 * time.Hour)
	conn := &toggleConn{Conn: client.NewLocalConn(s, nil)}
	ms.Add(conn)
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}

	// Past expiry with harvesting down: the refresh fails, but the old
	// summary stays in service, stamped stale — and queries still flow.
	clock = clock.Add(48 * time.Hour)
	conn.down.Store(true)
	if err := ms.Harvest(ctx); err == nil {
		t.Fatal("strict Harvest should surface the refresh failure")
	}
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	ans, err := ms.Search(ctx, q)
	if err != nil {
		t.Fatalf("stale-if-error search failed: %v", err)
	}
	if len(ans.Documents) == 0 {
		t.Error("stale summary produced no answer")
	}
	if !reflect.DeepEqual(ans.Degraded.Stale, []string{"S"}) {
		t.Errorf("Degraded.Stale = %v, want [S]", ans.Degraded.Stale)
	}
	if oc := ans.PerSource["S"]; oc == nil || !oc.Stale || oc.Results == nil {
		t.Errorf("per-source outcome not stamped stale: %+v", oc)
	}

	// Recovery: a successful refresh clears the staleness.
	conn.down.Store(false)
	s.Expires = clock.Add(24 * time.Hour)
	ans, err = ms.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded.Any() {
		t.Errorf("recovered source still degraded: %s", ans.Degraded)
	}
}

func TestSearchBudgetBoundsTotalTime(t *testing.T) {
	// Per-source timeout is generous; the budget must still cut the
	// search short.
	ms := New(Options{Timeout: 5 * time.Second, Budget: 80 * time.Millisecond})
	ms.Add(&slowConn{failingConn{id: "slow"}})
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	start := time.Now()
	_, err := ms.Search(context.Background(), q)
	elapsed := time.Since(start)
	if err == nil {
		t.Error("slow-only fleet should fail")
	}
	if elapsed > 2*time.Second {
		t.Errorf("budget did not bound the search: %v", elapsed)
	}
}

func TestSearchBudgetDegradesMixedFleet(t *testing.T) {
	ms, _ := fleetWith(t, Options{Timeout: 5 * time.Second, Budget: 300 * time.Millisecond})
	ms.Add(&slowConn{failingConn{id: "slow"}})
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("healthy sources should carry the answer: %v", err)
	}
	if len(ans.Documents) == 0 {
		t.Error("no documents despite healthy sources")
	}
	found := false
	for _, id := range ans.Degraded.Failed {
		if id == "slow" {
			found = true
		}
	}
	if !found {
		t.Errorf("slow source not reported failed: %s", ans.Degraded)
	}
}

// heardBreaker is a resilient.Breaker that also passes on every outcome
// it records: a call's worker records it after the waiters have left, so
// a test waits for it here before reading the circuit.
type heardBreaker struct {
	*resilient.Breaker
	heard chan error
}

func (b *heardBreaker) Record(id string, err error) {
	b.Breaker.Record(id, err)
	b.heard <- err
}

// searchOnce harvests ms, searches it once and returns the search's
// error once the breaker has heard the sub-query's outcome.
func (b *heardBreaker) searchOnce(t *testing.T, ms *Metasearcher) error {
	t.Helper()
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-b.heard
	_, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`))
	select {
	case <-b.heard:
	case <-time.After(5 * time.Second):
		t.Fatal("the sub-query's outcome never reached the breaker")
	}
	return err
}

// TestSourceTimeoutTripsItsCircuit: a source that hangs past the Timeout
// has failed, so its circuit counts it (and, half-open, a hung probe
// reopens it); one the search's Budget cut short has not, as the caller
// gave up first.
func TestSourceTimeoutTripsItsCircuit(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want resilient.State
	}{
		{"timeout", Options{Timeout: 30 * time.Millisecond}, resilient.StateOpen},
		{"budget", Options{Timeout: 5 * time.Second, Budget: 30 * time.Millisecond}, resilient.StateClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			br := &heardBreaker{resilient.NewBreaker(resilient.BreakerConfig{FailureThreshold: 1}), make(chan error, 4)}
			tc.opts.Breaker = br
			ms := New(tc.opts)
			defer ms.Close()
			ms.Add(&slowConn{failingConn{id: "slow"}})
			if err := br.searchOnce(t, ms); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("search = %v, want the slow source's deadline", err)
			}
			if got := br.State("slow"); got != tc.want {
				t.Errorf("circuit %v, want %v", got, tc.want)
			}
		})
	}
}

// TestRetryBackoffPastTimeoutFailsFast: a retrying source whose next
// backoff would outlast the Timeout fails at once with its own error,
// which its circuit counts, instead of sleeping until its waiters give up.
func TestRetryBackoffPastTimeoutFailsFast(t *testing.T) {
	br := &heardBreaker{resilient.NewBreaker(resilient.BreakerConfig{FailureThreshold: 1}), make(chan error, 4)}
	ms := New(Options{Timeout: 500 * time.Millisecond, Breaker: br})
	defer ms.Close()
	// Backoffs are capped at 2 s and jittered down to half: at least 1 s.
	ms.Add(resilient.Wrap(&failingConn{id: "flaky"}, resilient.RetryPolicy{BaseDelay: time.Hour}, nil))
	if err := br.searchOnce(t, ms); err == nil || !strings.Contains(err.Error(), "exceeds remaining deadline") {
		t.Errorf("search = %v, want the source's own fail-fast backoff error", err)
	}
	if got := br.State("flaky"); got != resilient.StateOpen {
		t.Errorf("circuit %v, want open", got)
	}
}

// fakeGate refuses a fixed set of sources and counts admissions and
// outcomes.
type fakeGate struct {
	mu      sync.Mutex
	refused map[string]bool
	admits  map[string]int
	records map[string]int
}

func (g *fakeGate) Allow(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.refused[id] {
		return false
	}
	if g.admits == nil {
		g.admits = map[string]int{}
	}
	g.admits[id]++
	return true
}

func (g *fakeGate) Record(id string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.records == nil {
		g.records = map[string]int{}
	}
	g.records[id]++
}

func (g *fakeGate) counts(id string) (admits, records int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.admits[id], g.records[id]
}

// balanced checks that every admission was answered by exactly one
// Record, so no half-open probe is left held.
func (g *fakeGate) balanced(t *testing.T) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if !reflect.DeepEqual(g.admits, g.records) {
		t.Errorf("breaker: admissions %v, records %v", g.admits, g.records)
	}
}

func TestBreakerGateSkipsSources(t *testing.T) {
	gate := &fakeGate{refused: map[string]bool{"cs": true}}
	ms, _ := fleetWith(t, Options{Timeout: 5 * time.Second, Breaker: gate})
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ans.Contacted {
		if id == "cs" {
			t.Error("refused source was contacted")
		}
	}
	if !reflect.DeepEqual(ans.Degraded.Skipped, []string{"cs"}) {
		t.Errorf("Degraded.Skipped = %v, want [cs]", ans.Degraded.Skipped)
	}
	oc := ans.PerSource["cs"]
	if oc == nil || oc.Err == nil || !strings.Contains(oc.Err.Error(), "circuit open") {
		t.Errorf("skipped source outcome = %+v", oc)
	}
	if len(ans.Documents) == 0 {
		t.Error("admitted sources should still answer")
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.records["cs"] != 0 {
		t.Error("skipped source had outcomes recorded")
	}
	if len(gate.records) == 0 {
		t.Error("contacted sources not recorded to the gate")
	}
}

func TestBreakerGateAllRefusedDegradesToEmpty(t *testing.T) {
	ms, _ := fleetWith(t, Options{Timeout: 5 * time.Second,
		Breaker: &fakeGate{refused: map[string]bool{"cs": true, "garden": true, "archive": true}}})
	// A term no source matches: every source is eligible, all are refused.
	q := rankingQuery(t, `list((body-of-text "xylophone"))`)
	ans, err := ms.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("all-refused fleet must degrade, not error: %v", err)
	}
	if len(ans.Documents) != 0 || len(ans.Contacted) != 0 {
		t.Errorf("answer = %d docs, contacted %v", len(ans.Documents), ans.Contacted)
	}
	if !reflect.DeepEqual(ans.Degraded.Skipped, []string{"archive", "cs", "garden"}) {
		t.Errorf("Degraded.Skipped = %v", ans.Degraded.Skipped)
	}
}

func TestHarvestErrorAggregationDeterministic(t *testing.T) {
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	var msgs []string
	for i := 0; i < 5; i++ {
		ms := New(Options{})
		for _, id := range []string{"zeta", "alpha", "mid"} {
			ms.Add(&brokenHarvestConn{failingConn{id: id}})
		}
		_, err := ms.Search(context.Background(), q)
		if err == nil {
			t.Fatal("unharvestable fleet should fail")
		}
		for _, id := range []string{"alpha", "mid", "zeta"} {
			if !strings.Contains(err.Error(), id) {
				t.Fatalf("aggregate error misses %s: %v", id, err)
			}
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("aggregate error not deterministic:\n%s\nvs\n%s", msgs[0], m)
		}
	}
	if a, z := strings.Index(msgs[0], "alpha"), strings.Index(msgs[0], "zeta"); a > z {
		t.Errorf("errors not sorted by source ID: %s", msgs[0])
	}
}

func TestAllFailedErrorAggregationDeterministic(t *testing.T) {
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	var msgs []string
	for i := 0; i < 5; i++ {
		ms := New(Options{})
		ms.Add(&failingConn{id: "b2"})
		ms.Add(&failingConn{id: "b1"})
		_, err := ms.Search(context.Background(), q)
		if err == nil {
			t.Fatal("all-failing fleet should fail")
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("aggregate error not deterministic:\n%s\nvs\n%s", msgs[0], m)
		}
	}
	if i1, i2 := strings.Index(msgs[0], "b1"), strings.Index(msgs[0], "b2"); i1 < 0 || i2 < 0 || i1 > i2 {
		t.Errorf("per-source errors missing or unsorted: %s", msgs[0])
	}
}

func TestDegradationReport(t *testing.T) {
	var d Degradation
	if d.Any() || d.String() != "none" {
		t.Errorf("zero Degradation = %v %q", d.Any(), d.String())
	}
	d.Failed = []string{"x"}
	if !d.Any() || !strings.Contains(d.String(), "failed=[x]") {
		t.Errorf("Degradation = %v %q", d.Any(), d.String())
	}
}
