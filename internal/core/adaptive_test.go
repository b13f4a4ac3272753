package core

import (
	"context"
	"testing"
	"time"

	"starts/internal/gloss"
	"starts/internal/query"
)

func TestStatsAccumulate(t *testing.T) {
	ms, _ := fleet(t)
	ms.Add(&failingConn{id: "broken"})
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	if _, err := ms.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	st, ok := ms.Stats("cs")
	if !ok || st.Queries != 1 || st.Failures != 0 || st.DocsReturned == 0 {
		t.Errorf("cs stats = %+v, %v", st, ok)
	}
	if st.MeanLatency <= 0 {
		t.Errorf("latency not recorded: %v", st.MeanLatency)
	}
	bst, ok := ms.Stats("broken")
	if !ok || bst.Failures != 1 || bst.FailureRate() != 1 {
		t.Errorf("broken stats = %+v, %v", bst, ok)
	}
	if _, ok := ms.Stats("never-seen"); ok {
		t.Error("stats for unknown source")
	}
	if (SourceStats{}).FailureRate() != 0 {
		t.Error("zero-query failure rate should be 0")
	}
}

func TestAdaptiveSelectorDemotesFlakySources(t *testing.T) {
	ms, _ := fleet(t)
	ms.Add(&failingConn{id: "broken"})
	ctx := context.Background()
	q := rankingQuery(t, `list((body-of-text "databases"))`)

	// Let the metasearcher observe the failure a few times.
	for i := 0; i < 3; i++ {
		if _, err := ms.Search(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	// The failing conn claims df=90 for "databases" — content-wise it
	// looks best.
	infos := []gloss.SourceInfo{}
	for _, id := range ms.SourceIDs() {
		md, sum, ok := ms.Harvested(id)
		if !ok {
			t.Fatalf("%s not harvested", id)
		}
		infos = append(infos, gloss.SourceInfo{ID: id, Summary: sum, Meta: md})
	}
	plain := (gloss.VSum{}).Rank(q, infos)
	if plain[0].ID != "broken" {
		t.Fatalf("premise broken: content-wise the failing source should lead, got %v", plain[0])
	}
	adaptive := ms.NewAdaptiveSelector(gloss.VSum{})
	if adaptive.Name() != "adaptive(vGlOSS-Sum(0))" {
		t.Errorf("name = %s", adaptive.Name())
	}
	ranked := adaptive.Rank(q, infos)
	if ranked[0].ID == "broken" {
		t.Errorf("adaptive selector still ranks the always-failing source first: %v", ranked)
	}
	for _, r := range ranked {
		if r.ID == "broken" && r.Goodness != 0 {
			t.Errorf("failure rate 1 should zero goodness, got %g", r.Goodness)
		}
	}
}

func TestAdaptiveSelectorLatencyPenalty(t *testing.T) {
	book := newStatsBook()
	book.record("slow", 4*time.Second, false, 10)
	book.record("fast", 10*time.Millisecond, false, 10)
	sel := &AdaptiveSelector{
		Inner:           fixedSelector{"slow": 100, "fast": 90},
		Stats:           book.get,
		LatencyHalfLife: 2 * time.Second,
	}
	q := rankingQuery(t, `list((body-of-text "x"))`)
	ranked := sel.Rank(q, []gloss.SourceInfo{{ID: "slow"}, {ID: "fast"}})
	// slow: 100/(1+2) = 33.3; fast: 90/(1+0.005) ≈ 89.6.
	if ranked[0].ID != "fast" {
		t.Errorf("latency penalty did not demote the slow source: %v", ranked)
	}
}

// fixedSelector assigns fixed goodness by ID.
type fixedSelector map[string]float64

func (fixedSelector) Name() string { return "fixed" }

func (f fixedSelector) Rank(_ *query.Query, sources []gloss.SourceInfo) []gloss.Ranked {
	out := make([]gloss.Ranked, 0, len(sources))
	for _, si := range sources {
		out = append(out, gloss.Ranked{ID: si.ID, Goodness: f[si.ID]})
	}
	return out
}
