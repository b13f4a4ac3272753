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

// fakeGate refuses a fixed set of sources and counts admissions, outcomes
// and probe-slot releases.
type fakeGate struct {
	mu       sync.Mutex
	refused  map[string]bool
	admits   int
	records  map[string]int
	releases map[string]int
}

func (g *fakeGate) Allow(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.refused[id] {
		return false
	}
	g.admits++
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

func (g *fakeGate) Release(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.releases == nil {
		g.releases = map[string]int{}
	}
	g.releases[id]++
}

func (g *fakeGate) counts(id string) (records, releases int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.records[id], g.releases[id]
}

// balanced checks that every admission was answered, by a Record or a
// Release, so no half-open probe is left held.
func (g *fakeGate) balanced(t *testing.T) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	answered := 0
	for id := range g.records {
		answered += g.records[id]
	}
	for id := range g.releases {
		answered += g.releases[id]
	}
	if g.admits != answered {
		t.Errorf("breaker: %d admissions, %d records + releases", g.admits, answered)
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
