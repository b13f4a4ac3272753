package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/faulty"
	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/resilient"
)

// TestSearchTraceFanOut drives a traced search across the three healthy
// fleet sources plus one that fails at query time, and checks the span
// tree: the five pipeline stages at the top level, per-source children
// under harvest/translate/fanout, and the failure annotated on the
// broken source's query span.
func TestSearchTraceFanOut(t *testing.T) {
	ms, _ := fleet(t)
	ms.Add(&failingConn{id: "broken"})
	q := rankingQuery(t, `list((body-of-text "databases"))`)

	var tr obs.Trace
	ans, err := ms.Search(context.Background(), q, WithTrace(&tr))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trace != &tr {
		t.Error("Answer.Trace should be the caller's trace")
	}
	ti := tr.Snapshot()
	if ti.Duration <= 0 {
		t.Error("trace should be finished")
	}

	var stages []string
	for _, sp := range ti.Spans {
		stages = append(stages, sp.Name)
	}
	want := []string{"harvest", "select", "translate", "fanout", "merge"}
	if strings.Join(stages, " ") != strings.Join(want, " ") {
		t.Fatalf("stages = %v, want %v", stages, want)
	}

	// All four sources were harvested; selection drops the off-topic
	// garden source, so translate and fan-out carry the three promising
	// ones. Every per-source span lives under its stage, not at the top
	// level.
	for stage, want := range map[string]struct {
		prefix string
		n      int
	}{
		"harvest":   {"harvest ", 4},
		"translate": {"translate ", 3},
		"fanout":    {"query ", 3},
	} {
		sp := ti.Find(stage)
		if len(sp.Children) != want.n {
			t.Errorf("%s children = %d, want %d: %+v", stage, len(sp.Children), want.n, sp.Children)
		}
		for _, c := range sp.Children {
			if !strings.HasPrefix(c.Name, want.prefix) || c.Source == "" {
				t.Errorf("%s child = %q [%s]", stage, c.Name, c.Source)
			}
		}
	}
	// 5 stages + 4 harvests + 3 translations + 3 queries + 3 dispatch
	// children (one per query span, recording the queueing side of the
	// wire call).
	if got := ti.SpanCount(); got != 18 {
		t.Errorf("SpanCount = %d, want 18", got)
	}
	for _, id := range []string{"cs", "archive", "broken"} {
		qs := ti.Find("query " + id)
		if qs == nil || len(qs.Children) != 1 || qs.Children[0].Name != "dispatch" {
			t.Errorf("query %s children = %+v, want one dispatch span", id, qs)
			continue
		}
		if co, ok := qs.Children[0].Attr("coalesced"); !ok || co != "false" {
			t.Errorf("query %s dispatch coalesced = %q %v, want \"false\"", id, co, ok)
		}
	}

	if sp := ti.Find("query broken"); sp == nil || !strings.Contains(sp.Err, "source down") {
		t.Errorf("broken query span = %+v", sp)
	}
	if sp := ti.Find("query cs"); sp == nil || sp.Err != "" {
		t.Errorf("cs query span = %+v", sp)
	} else if docs, ok := sp.Attr("docs"); !ok || docs == "0" {
		t.Errorf("cs docs annotation = %q %v", docs, ok)
	}
	if sel := ti.Find("select"); sel == nil {
		t.Error("select span missing")
	} else if picked, _ := sel.Attr("picked"); picked != "3" {
		t.Errorf("select picked = %q", picked)
	}
	if mg := ti.Find("merge"); mg == nil {
		t.Error("merge span missing")
	} else if s, _ := mg.Attr("strategy"); s == "" {
		t.Error("merge strategy annotation missing")
	}

	// The same trace can be reused for the next search; the second run
	// hits the harvest cache, so the harvest stage has no children.
	if _, err := ms.Search(context.Background(), q, WithTrace(&tr)); err != nil {
		t.Fatal(err)
	}
	if got := tr.Snapshot().SpanCount(); got != 14 {
		t.Errorf("reused trace SpanCount = %d, want 14", got)
	}
}

// TestSearchRecordsMetrics checks the registry side of a search: the
// search and per-source latency histograms (whose counts are the search
// and query counts), the registered-source gauge, and harvest cache
// hit/miss accounting across repeated searches.
func TestSearchRecordsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	fleetMS, srcs := fleet(t)
	_ = fleetMS // fleet only provides the corpus; this test wants its own registry
	ms := New(Options{Timeout: 5 * time.Second, Metrics: reg})
	for _, id := range []string{"cs", "garden", "archive"} {
		ms.Add(client.NewLocalConn(srcs[id], nil))
	}
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := ms.Search(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Gauge("starts_sources_registered").Value(); got != 3 {
		t.Errorf("sources_registered = %d", got)
	}
	// First search harvests all three sources (misses); the second runs
	// entirely off the cache (hits).
	if got := reg.Counter("starts_harvest_cache_misses_total").Value(); got != 3 {
		t.Errorf("cache misses = %d", got)
	}
	if got := reg.Counter("starts_harvest_cache_hits_total").Value(); got != 3 {
		t.Errorf("cache hits = %d", got)
	}
	h := reg.Histogram("starts_search_seconds")
	if h.Count() != 2 {
		t.Errorf("search_seconds count = %d", h.Count())
	}
	var bucketed int64
	for _, n := range h.BucketCounts() {
		bucketed += n
	}
	if bucketed != 2 {
		t.Errorf("search_seconds bucket counts sum to %d: %v", bucketed, h.BucketCounts())
	}
	if got := reg.Histogram(obs.L("starts_source_query_seconds", "source", "cs")).Count(); got != 2 {
		t.Errorf("cs query_seconds count = %d", got)
	}
	if got := reg.Counter(obs.L("starts_merge_docs_total", "strategy", merge.TermStats{}.Name())).Value(); got == 0 {
		t.Error("merge_docs_total should be non-zero")
	}
}

// TestBreakerFlapMetrics scripts an outage with the fault injector and
// watches the breaker-transition counters: the circuit opens during the
// outage, goes half-open at the first post-cooldown probe, and closes
// when the probe succeeds.
func TestBreakerFlapMetrics(t *testing.T) {
	_, srcs := fleet(t)
	reg := obs.NewRegistry()

	clock := time.Now()
	br := resilient.NewBreaker(resilient.BreakerConfig{
		FailureThreshold: 2,
		Cooldown:         time.Second,
		Metrics:          reg,
		Now:              func() time.Time { return clock },
	})
	fc := faulty.WrapConn(client.NewLocalConn(srcs["cs"], nil), faulty.Config{})
	flappy := New(Options{Timeout: 5 * time.Second, Breaker: br, Metrics: reg})
	flappy.Add(fc)
	ctx := context.Background()
	if err := flappy.Harvest(ctx); err != nil {
		t.Fatal(err)
	}

	q := rankingQuery(t, `list((body-of-text "databases"))`)
	count := func(to string) int64 {
		return reg.Counter(obs.L("starts_breaker_transitions_total", "source", "cs", "to", to)).Value()
	}

	// Outage: two failing queries trip the threshold and open the circuit.
	fc.SetFailing(true)
	for i := 0; i < 2; i++ {
		if _, err := flappy.Search(ctx, q); err == nil {
			t.Fatal("search against a downed source should fail")
		}
	}
	if got := count("open"); got != 1 {
		t.Errorf("to=open transitions = %d, want 1", got)
	}
	// While open, the search is shed without reaching the source: the
	// answer degrades to "skipped" instead of waiting out a timeout.
	calls := fc.Calls()
	shed, err := flappy.Search(ctx, q)
	if err != nil {
		t.Fatalf("shed search: %v", err)
	}
	if len(shed.Degraded.Skipped) != 1 {
		t.Errorf("shed degradation = %+v", shed.Degraded)
	}
	if fc.Calls() != calls {
		t.Errorf("open circuit still contacted the source (%d -> %d calls)", calls, fc.Calls())
	}

	// Recovery: past the cooldown the next search is admitted as the
	// half-open probe, succeeds, and closes the circuit.
	fc.SetFailing(false)
	clock = clock.Add(2 * time.Second)
	if _, err := flappy.Search(ctx, q); err != nil {
		t.Fatalf("probe search: %v", err)
	}
	if got := count("half-open"); got != 1 {
		t.Errorf("to=half-open transitions = %d, want 1", got)
	}
	if got := count("closed"); got != 1 {
		t.Errorf("to=closed transitions = %d, want 1", got)
	}
	if br.State("cs") != resilient.StateClosed {
		t.Errorf("final state = %v", br.State("cs"))
	}
}

// TestStatsAccumulate checks the per-source outcome record a search
// leaves in the registry: one latency observation (the query count) for
// each contacted source, and one error for the source whose query failed.
func TestStatsAccumulate(t *testing.T) {
	ms, _ := fleet(t)
	ms.Add(&failingConn{id: "broken"})
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	if _, err := ms.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	reg := ms.Metrics()
	if got := reg.Histogram(obs.L("starts_source_query_seconds", "source", "cs")).Count(); got != 1 {
		t.Errorf("cs query_seconds count = %d, want 1", got)
	}
	if got := reg.Counter(obs.L("starts_source_query_errors_total", "source", "broken")).Value(); got != 1 {
		t.Errorf("broken query_errors_total = %d, want 1", got)
	}
}
