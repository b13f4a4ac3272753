package starts_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"starts"
	"starts/internal/corpus"
	"starts/internal/engine"
	"starts/internal/eval"
	"starts/internal/resilient"
)

// TestScaleSoak drives the full pipeline at a larger scale: 10
// heterogeneous sources × 500 documents, 30 workload queries through
// selection, translation, fan-out and merging. It asserts end-to-end
// sanity (every topical query answered, no duplicates, sane latency),
// not exact numbers.
func TestScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test indexes 5000 documents; skipped in -short")
	}
	g := corpus.Generate(corpus.Config{Seed: 77, NumSources: 10, DocsPerSource: 500, Overlap: 0.05})
	scorers := []engine.Scorer{engine.TFIDF{}, engine.TopK{}, engine.RawTF{}}
	ms := starts.NewMetasearcher(starts.MetasearcherOptions{
		MaxSources: 4,
		Merger:     starts.MergeTermStats,
	})
	for i, spec := range g.Sources {
		cfg := engine.NewVectorConfig()
		cfg.Scorer = scorers[i%len(scorers)]
		eng, err := starts.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := starts.NewSource(spec.ID, eng)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range spec.Docs {
			if err := src.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		ms.Add(starts.NewLocalConn(src, nil))
	}
	ctx := context.Background()
	harvestStart := time.Now()
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}
	t.Logf("harvested 10 sources in %v", time.Since(harvestStart))

	workload := corpus.Workload(g, corpus.WorkloadConfig{Seed: 78, NumQueries: 30, FilterFraction: -1})
	answered := 0
	var total time.Duration
	for _, wq := range workload {
		start := time.Now()
		ans, err := ms.Search(ctx, wq.Query)
		if err != nil {
			t.Fatalf("query %v: %v", wq.Terms, err)
		}
		elapsed := time.Since(start)
		total += elapsed
		if elapsed > 5*time.Second {
			t.Errorf("query %v took %v", wq.Terms, elapsed)
		}
		if len(ans.Documents) > 0 {
			answered++
		}
		seen := map[string]bool{}
		for _, d := range ans.Documents {
			if seen[d.Linkage()] {
				t.Fatalf("duplicate %s in merged answer", d.Linkage())
			}
			seen[d.Linkage()] = true
		}
		if len(ans.Contacted) > 4 {
			t.Errorf("MaxSources ignored: contacted %v", ans.Contacted)
		}
		// Selection sanity: the topical source family should lead for
		// head-of-vocabulary queries.
		if len(ans.Selected) > 0 && ans.Selected[0].Goodness > 0 {
			sel := eval.Rn([]string{ans.Selected[0].ID}, map[string]float64{ans.Selected[0].ID: 1}, 1)
			if sel != 1 {
				t.Errorf("Rn self-check failed")
			}
		}
	}
	if answered < 25 {
		t.Errorf("only %d/30 queries answered", answered)
	}
	t.Logf("30 queries in %v (mean %v)", total, total/30)
}

// resilienceFleet builds n small sources sharing a topic vocabulary, so
// every "databases" query selects all of them.
func resilienceFleet(t *testing.T, n int) []starts.Conn {
	t.Helper()
	conns := make([]starts.Conn, n)
	for i := range conns {
		eng, err := starts.NewVectorEngine()
		if err != nil {
			t.Fatal(err)
		}
		src, err := starts.NewSource(fmt.Sprintf("S%d", i), eng)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if err := src.Add(&starts.Document{
				Linkage: fmt.Sprintf("http://s%d/%d", i, j),
				Title:   fmt.Sprintf("S%d paper %d", i, j),
				Body:    "distributed databases metasearch ranking selection merging",
			}); err != nil {
				t.Fatal(err)
			}
		}
		conns[i] = starts.NewLocalConn(src, nil)
	}
	return conns
}

func soakQuery(t *testing.T, term string) *starts.Query {
	t.Helper()
	q := starts.NewQuery()
	r, err := starts.ParseRanking(`list((body-of-text "` + term + `"))`)
	if err != nil {
		t.Fatal(err)
	}
	q.Ranking = r
	return q
}

// TestFlappingSoak scripts an outage of 2 of 5 sources and drives the
// metasearcher through the whole breaker lifecycle: the circuits open
// after the failure threshold, answers stay merged (degraded, never
// all-or-nothing), and recovery probes re-close the circuits.
func TestFlappingSoak(t *testing.T) {
	br := starts.NewBreaker(starts.BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         30 * time.Millisecond,
	})
	ms := starts.NewMetasearcher(starts.MetasearcherOptions{
		Timeout: 2 * time.Second,
		Breaker: br,
	})
	conns := resilienceFleet(t, 5)
	var flappy []*starts.FaultyConn
	for i, c := range conns {
		if i < 2 {
			fc := starts.NewFaultyConn(c, starts.FaultConfig{})
			flappy = append(flappy, fc)
			c = fc
		}
		ms.Add(c)
	}
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}
	q := soakQuery(t, "databases")

	// Healthy phase: a clean fan-out across all five.
	ans, err := ms.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Contacted) != 5 || ans.Degraded.Any() {
		t.Fatalf("healthy phase: contacted %v, degraded %s", ans.Contacted, ans.Degraded)
	}

	// Outage: S0 and S1 go down. Every search must still return a merged
	// answer naming the failing sources, and after FailureThreshold
	// failures both circuits must open.
	for _, fc := range flappy {
		fc.SetFailing(true)
	}
	for i := 0; i < 6; i++ {
		ans, err := ms.Search(ctx, q)
		if err != nil {
			t.Fatalf("outage search %d errored (all-or-nothing): %v", i, err)
		}
		if len(ans.Documents) == 0 {
			t.Fatalf("outage search %d returned no documents", i)
		}
		degraded := map[string]bool{}
		for _, id := range ans.Degraded.Failed {
			degraded[id] = true
		}
		for _, id := range ans.Degraded.Skipped {
			degraded[id] = true
		}
		if !degraded["S0"] || !degraded["S1"] {
			t.Errorf("outage search %d does not name the flapping sources: %s", i, ans.Degraded)
		}
	}
	if br.State("S0") == resilient.StateClosed || br.State("S1") == resilient.StateClosed {
		t.Fatalf("circuits not open after outage: S0=%v S1=%v", br.State("S0"), br.State("S1"))
	}
	if br.State("S2") != resilient.StateClosed {
		t.Errorf("healthy source's circuit = %v, want closed", br.State("S2"))
	}

	// Recovery: the sources come back; after the cooldown a probe query
	// succeeds and re-closes each circuit.
	for _, fc := range flappy {
		fc.SetFailing(false)
	}
	time.Sleep(40 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for (br.State("S0") != resilient.StateClosed || br.State("S1") != resilient.StateClosed) && time.Now().Before(deadline) {
		if _, err := ms.Search(ctx, q); err != nil {
			t.Fatalf("recovery search errored: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if br.State("S0") != resilient.StateClosed || br.State("S1") != resilient.StateClosed {
		t.Fatalf("circuits did not re-close: S0=%v S1=%v", br.State("S0"), br.State("S1"))
	}
	ans, err = ms.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Contacted) != 5 || ans.Degraded.Any() {
		t.Errorf("recovered phase: contacted %v, degraded %s", ans.Contacted, ans.Degraded)
	}
}

// TestFaultInjectionAcceptance is the PR's acceptance scenario: 30%
// per-source fault injection across 5 sources, with retries in front.
// Every search must return a merged answer — never an all-or-nothing
// error — and Answer.Degraded must name exactly the sources that failed.
func TestFaultInjectionAcceptance(t *testing.T) {
	ms := starts.NewMetasearcher(starts.MetasearcherOptions{Timeout: 2 * time.Second})
	budget := resilient.NewBudget(50, 0.5)
	policy := starts.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Seed:        99,
	}
	for i, c := range resilienceFleet(t, 5) {
		fc := starts.NewFaultyConn(c, starts.FaultConfig{
			Seed:      int64(100 + i),
			ErrorRate: 0.3,
		})
		ms.Add(starts.NewRetryConn(fc, policy, budget))
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if ms.Harvest(ctx) == nil {
			break
		}
	}

	terms := []string{"databases", "metasearch", "distributed", "ranking"}
	degradedRuns := 0
	for i := 0; i < 40; i++ {
		q := soakQuery(t, terms[i%len(terms)])
		ans, err := ms.Search(ctx, q)
		if err != nil {
			t.Fatalf("search %d errored under 30%% faults (all-or-nothing): %v", i, err)
		}
		if len(ans.Documents) == 0 {
			t.Fatalf("search %d returned no documents", i)
		}
		if ans.Degraded.Any() {
			degradedRuns++
		}
		// Degraded.Failed must name exactly the contacted sources whose
		// query failed.
		failed := map[string]bool{}
		for _, id := range ans.Degraded.Failed {
			failed[id] = true
		}
		for _, id := range ans.Contacted {
			oc := ans.PerSource[id]
			if oc == nil {
				t.Fatalf("search %d: contacted %s has no outcome", i, id)
			}
			if (oc.Err != nil) != failed[id] {
				t.Errorf("search %d: %s err=%v but Degraded.Failed=%v", i, id, oc.Err, failed[id])
			}
		}
	}
	t.Logf("%d/40 searches degraded under 30%% fault injection", degradedRuns)
}

// soakPercentile returns the q-th percentile of ds (q in (0,1]).
func soakPercentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// TestOverloadSoak is the overload acceptance scenario: a fleet of four
// fast sources, one of which degrades mid-run to a latency far past the
// per-source timeout. The per-source Timeout bounds what one search pays
// for the degraded source; its dispatch queue's deadline check — the one
// rule on the broker that adapts admission to what it observes — learns
// the new service time from its own run ring and refuses, up front,
// submissions whose budget cannot cover it. The run must show (1) overall
// search latency staying bounded, (2) sheds that are deadline refusals
// on the degraded source and nothing at all on the healthy ones, and (3)
// searches reaching the source again once it recovers.
func TestOverloadSoak(t *testing.T) {
	const (
		perSourceTimeout = 60 * time.Millisecond
		healthyLatency   = 2 * time.Millisecond
		degradedLatency  = 500 * time.Millisecond
	)
	ms := starts.NewMetasearcher(starts.MetasearcherOptions{
		Timeout:           perSourceTimeout,
		SourceConcurrency: 4,
		QueueDepth:        8,
	})
	defer ms.Close()
	var faulty []*starts.FaultyConn
	for _, c := range resilienceFleet(t, 4) {
		fc := starts.NewFaultyConn(c, starts.FaultConfig{Latency: healthyLatency})
		faulty = append(faulty, fc)
		ms.Add(fc)
	}
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}
	// Distinct terms per burst member: identical concurrent queries would
	// coalesce into one dispatch batch per source and never exercise the
	// queue bound or the deadline check.
	qs := []*starts.Query{
		soakQuery(t, "databases"), soakQuery(t, "metasearch"),
		soakQuery(t, "ranking"), soakQuery(t, "merging"),
	}

	// burst runs n concurrent searches and returns each one's duration.
	burst := func(n int) []time.Duration {
		t.Helper()
		out := make([]time.Duration, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start := time.Now()
				ans, err := ms.Search(ctx, qs[i%len(qs)])
				if err != nil {
					t.Errorf("search errored (all-or-nothing): %v", err)
					return
				}
				if len(ans.Documents) == 0 {
					t.Error("search returned no documents")
				}
				out[i] = time.Since(start)
			}(i)
		}
		wg.Wait()
		return out
	}
	s0 := func() starts.DispatchQueueStat {
		t.Helper()
		for _, st := range ms.DispatchStats() {
			if st.Source == "S0" {
				return st
			}
		}
		t.Fatal("no dispatch queue for S0")
		return starts.DispatchQueueStat{}
	}

	// Healthy phase: measure the baseline.
	var healthy []time.Duration
	for i := 0; i < 15; i++ {
		healthy = append(healthy, burst(4)...)
	}
	healthyP99 := soakPercentile(healthy, 0.99)
	t.Logf("healthy baseline: p99 %v", healthyP99)

	// Fault introduction (unmeasured adaptation window): S0 degrades to a
	// latency far past the per-source timeout. Every S0 run now burns the
	// whole timeout, until the run ring's median is a service time no
	// caller's budget can cover and the first submission is refused.
	faulty[0].SetLatency(degradedLatency)
	adaptDeadline := time.Now().Add(15 * time.Second)
	for s0().Doomed == 0 {
		if time.Now().After(adaptDeadline) {
			t.Fatalf("S0 never refused a doomed submission under overload: %+v", s0())
		}
		burst(4)
	}
	t.Logf("overload learned: S0 typical run %v", s0().TypicalRun)

	// Steady overload (measured): most searches must complete at healthy
	// speed because S0 submissions are refused up front rather than
	// queueing; at most one idle probe at a time rides out the timeout
	// keeping the estimate fresh.
	preStats := ms.DispatchStats()
	var overload []time.Duration
	for i := 0; i < 25; i++ {
		overload = append(overload, burst(4)...)
	}
	// The baseline is floored at the per-source timeout: the claim is that
	// overload costs at most one timeout-bounded probe, not that a
	// machine-speed-dependent healthy p99 is preserved exactly.
	base := healthyP99
	if base < perSourceTimeout {
		base = perSourceTimeout
	}
	overloadP99 := soakPercentile(overload, 0.99)
	if overloadP99 > 2*base {
		t.Errorf("overload p99 %v exceeds 2x baseline %v", overloadP99, base)
	}
	// Sheds concentrate on the degraded source, as deadline refusals:
	// healthy sources must not pay for S0's meltdown.
	var s0Sheds, s0Doomed, allSheds int64
	for i, st := range ms.DispatchStats() {
		sheds := st.QueueFull + st.Doomed - (preStats[i].QueueFull + preStats[i].Doomed)
		allSheds += sheds
		if st.Source == "S0" {
			s0Sheds, s0Doomed = sheds, st.Doomed-preStats[i].Doomed
		} else if st.QueueFull+st.Doomed != 0 {
			t.Errorf("healthy source %s shed: queue-full %d, doomed %d", st.Source, st.QueueFull, st.Doomed)
		}
	}
	if s0Sheds == 0 {
		t.Error("degraded source recorded no sheds during steady overload")
	}
	if s0Doomed == 0 {
		t.Error("degraded source refused no doomed submission during steady overload")
	}
	if allSheds > 0 && float64(s0Sheds)/float64(allSheds) < 0.8 {
		t.Errorf("sheds not concentrated on S0: %d of %d", s0Sheds, allSheds)
	}
	t.Logf("steady overload: p99 %v (healthy p99 %v), S0 sheds %d/%d (queue-full %d, doomed %d)",
		overloadP99, healthyP99, s0Sheds, allSheds, s0Sheds-s0Doomed, s0Doomed)

	// Recovery: S0 speeds back up. An idle source always admits, so the
	// next searches reach it, a search completes S0 cleanly end to end,
	// and their fast runs flush the ring's slow history.
	faulty[0].SetLatency(healthyLatency)
	recovered := false
	for attempt := 0; attempt < 50 && !(recovered && s0().TypicalRun < perSourceTimeout/2); attempt++ {
		ans, err := ms.Search(ctx, qs[attempt%len(qs)])
		if err != nil {
			t.Fatal(err)
		}
		if oc := ans.PerSource["S0"]; oc != nil && oc.Err == nil {
			recovered = true
		}
	}
	if !recovered {
		t.Error("no post-recovery search completed S0 cleanly")
	}
	if run := s0().TypicalRun; run >= perSourceTimeout/2 {
		t.Errorf("S0 typical run still %v after 50 recovered searches", run)
	}
	t.Logf("recovered: S0 typical run %v", s0().TypicalRun)
}

// TestDeadlineShedsSurfaceTyped pins the error surface: a doomed
// submission's outcome is detectable with errors.Is against
// starts.ErrDispatchDeadline, so callers can tell budget refusals from
// wire failures.
func TestDeadlineShedsSurfaceTyped(t *testing.T) {
	const timeout = 40 * time.Millisecond
	ms := starts.NewMetasearcher(starts.MetasearcherOptions{
		Timeout:           timeout,
		SourceConcurrency: 1,
		QueueDepth:        4,
	})
	defer ms.Close()
	var fc *starts.FaultyConn
	for i, c := range resilienceFleet(t, 2) {
		if i == 0 {
			fc = starts.NewFaultyConn(c, starts.FaultConfig{})
			c = fc
		}
		ms.Add(c)
	}
	ctx := context.Background()
	if err := ms.Harvest(ctx); err != nil {
		t.Fatal(err)
	}
	s0 := func() starts.DispatchQueueStat {
		t.Helper()
		for _, st := range ms.DispatchStats() {
			if st.Source == "S0" {
				return st
			}
		}
		t.Fatal("no dispatch queue for S0")
		return starts.DispatchQueueStat{}
	}
	fc.SetLatency(300 * time.Millisecond)

	// Warm the service-time estimate: sequential full-budget searches each
	// burn the whole per-source timeout on S0 (S1 still answers, so the
	// search itself succeeds), until the run ring's median settles near the
	// timeout. Distinct terms below keep every phase on its own batch key —
	// a coalesced joiner would bypass the deadline check entirely.
	warmQ := soakQuery(t, "databases")
	deadline := time.Now().Add(15 * time.Second)
	for s0().TypicalRun < timeout/2 {
		if time.Now().After(deadline) {
			t.Fatalf("S0 typical run never settled: %+v", s0())
		}
		if _, err := ms.Search(ctx, warmQ); err != nil {
			t.Fatal(err)
		}
	}

	// Probe: while a full-budget search keeps S0's single worker busy, a
	// search whose remaining budget is far below the learned median must be
	// refused up front with the typed deadline error.
	busyQ := soakQuery(t, "metasearch")
	probeQ := soakQuery(t, "ranking")
	sawDeadline := false
	for !sawDeadline && time.Now().Before(deadline) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ms.Search(ctx, busyQ) // outcome irrelevant: it exists to occupy S0
		}()
		time.Sleep(5 * time.Millisecond) // let the busy search reach S0's worker
		pctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		ans, err := ms.Search(pctx, probeQ)
		cancel()
		<-done
		if err != nil {
			continue // whole-search failure (e.g. budget too tight for S1 too)
		}
		if oc := ans.PerSource["S0"]; oc != nil && errors.Is(oc.Err, starts.ErrDispatchDeadline) {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatal("no per-source outcome carried ErrDispatchDeadline under sustained overload")
	}
}
