package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
)

// collectStream runs SearchStream with a recording sink and returns the
// answer plus the recorded events.
func collectStream(t *testing.T, ms *Metasearcher, q *query.Query, sopts ...SearchOption) (*Answer, []StreamEvent) {
	t.Helper()
	var events []StreamEvent
	ans, err := ms.SearchStream(context.Background(), q, func(ev StreamEvent) error {
		events = append(events, ev)
		return nil
	}, sopts...)
	if err != nil {
		t.Fatal(err)
	}
	return ans, events
}

// checkStreamShape asserts the StreamEvent contract against the final
// answer: exactly one terminal event, last; event ranks match their
// position in the concatenation; the concatenated Docs are pointerwise
// the final answer's Documents.
func checkStreamShape(t *testing.T, ans *Answer, events []StreamEvent) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	var got []*result.Document
	for i, ev := range events {
		if (ev.Final != nil) != (i == len(events)-1) {
			t.Fatalf("event %d/%d: Final=%v", i, len(events), ev.Final != nil)
		}
		if len(ev.Docs) > 0 && ev.Rank != len(got) {
			t.Fatalf("event %d: rank %d, want %d", i, ev.Rank, len(got))
		}
		got = append(got, ev.Docs...)
	}
	final := events[len(events)-1].Final
	if final != ans {
		t.Fatalf("terminal Final is not the returned answer")
	}
	if len(got) != len(ans.Documents) {
		t.Fatalf("streamed %d docs, answer has %d", len(got), len(ans.Documents))
	}
	for i := range got {
		if got[i] != ans.Documents[i] {
			t.Fatalf("streamed doc %d is %s, answer has %s", i, got[i].Linkage(), ans.Documents[i].Linkage())
		}
	}
}

// TestSearchStreamMatchesSearch: for every merge strategy, a streamed
// search emits the final answer's documents in order across its events
// and returns an answer identical to a plain Search of an identical
// fleet under the same strategy.
func TestSearchStreamMatchesSearch(t *testing.T) {
	strategies := []merge.Strategy{merge.TermStats{}, merge.RawScore{}, merge.Scaled{}, merge.RoundRobin{}}
	for _, strat := range strategies {
		t.Run(strat.Name(), func(t *testing.T) {
			q := rankingQuery(t, `list((body-of-text "databases") (body-of-text "metasearch"))`)
			opts := Options{Merger: strat, Timeout: 5 * time.Second}
			msBatch, _ := fleetWith(t, opts)
			want, err := msBatch.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}

			msStream, _ := fleetWith(t, opts)
			ans, events := collectStream(t, msStream, q)
			checkStreamShape(t, ans, events)

			if len(ans.Documents) != len(want.Documents) {
				t.Fatalf("streamed answer has %d docs, batch has %d", len(ans.Documents), len(want.Documents))
			}
			for i := range want.Documents {
				g, w := ans.Documents[i], want.Documents[i]
				if g.Linkage() != w.Linkage() || g.RawScore != w.RawScore ||
					fmt.Sprint(g.Sources) != fmt.Sprint(w.Sources) {
					t.Fatalf("rank %d: streamed %s (%g, %v) != batch %s (%g, %v)",
						i, g.Linkage(), g.RawScore, g.Sources, w.Linkage(), w.RawScore, w.Sources)
				}
			}

			// Per-source events carry outcomes for every contacted source.
			perSource := 0
			for _, ev := range events {
				if ev.SourceID != "" {
					perSource++
					if ev.Outcome == nil {
						t.Fatalf("per-source event for %s has no outcome", ev.SourceID)
					}
				}
			}
			if perSource != len(ans.Contacted) {
				t.Fatalf("%d per-source events for %d contacted sources", perSource, len(ans.Contacted))
			}
		})
	}
}

// TestSearchStreamNilSinkIsSearch: Search and SearchStream with a nil
// sink are the same code path; a nil sink must not panic or change
// results.
func TestSearchStreamNilSinkIsSearch(t *testing.T) {
	reg := obs.NewRegistry()
	ms, _ := fleetWith(t, Options{Timeout: 5 * time.Second, Metrics: reg})
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	ans, err := ms.SearchStream(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Documents) == 0 {
		t.Fatal("no documents")
	}
	if n := reg.Counter(obs.MStreamSearches).Value(); n != 0 {
		t.Fatalf("nil-sink search counted as streamed (%d)", n)
	}
}

// TestSearchStreamCacheReplay: the flight leader streams per-source
// events; a later identical search is served from cache as exactly one
// terminal event, without touching the sources again.
func TestSearchStreamCacheReplay(t *testing.T) {
	reg := obs.NewRegistry()
	ms, conn, _ := cachedFleet(t, qcache.Config{Metrics: reg, TTL: time.Hour})
	q := rankingQuery(t, `list((body-of-text "databases"))`)

	ans1, ev1 := collectStream(t, ms, q)
	checkStreamShape(t, ans1, ev1)
	if len(ev1) < 2 {
		t.Fatalf("leader emitted %d events, want per-source + terminal", len(ev1))
	}
	if got := conn.queries.Load(); got != 1 {
		t.Fatalf("leader ran %d fan-outs, want 1", got)
	}

	ans2, ev2 := collectStream(t, ms, q)
	checkStreamShape(t, ans2, ev2)
	if len(ev2) != 1 {
		t.Fatalf("cache hit emitted %d events, want one terminal replay", len(ev2))
	}
	if got := conn.queries.Load(); got != 1 {
		t.Fatalf("cache hit re-ran the fan-out (%d)", got)
	}
	if n := reg.Counter(obs.MStreamReplays).Value(); n != 1 {
		t.Fatalf("replays = %d, want 1", n)
	}
	if len(ans2.Documents) != len(ans1.Documents) {
		t.Fatalf("replayed answer has %d docs, original %d", len(ans2.Documents), len(ans1.Documents))
	}
}

// TestSearchStreamSinkErrorDoesNotPoisonSearch: a sink that fails mid
// stream stops receiving events, but the search completes, returns the
// full answer, and fills the cache for the next caller.
func TestSearchStreamSinkErrorDoesNotPoisonSearch(t *testing.T) {
	reg := obs.NewRegistry()
	ms, conn, _ := cachedFleet(t, qcache.Config{Metrics: reg, TTL: time.Hour})
	q := rankingQuery(t, `list((body-of-text "databases"))`)

	calls := 0
	ans, err := ms.SearchStream(context.Background(), q, func(StreamEvent) error {
		calls++
		return errors.New("client went away")
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after failing, want 1", calls)
	}
	if len(ans.Documents) == 0 {
		t.Fatal("failed sink cost the caller its answer")
	}
	if n := reg.Counter(obs.MStreamSinkErrors).Value(); n != 1 {
		t.Fatalf("sink errors = %d, want 1", n)
	}
	// The answer was still cached: the next search is a hit.
	if _, err := ms.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if got := conn.queries.Load(); got != 1 {
		t.Fatalf("search after failed-sink stream re-ran the fan-out (%d)", got)
	}
}

// TestSearchStreamAcceptance is the concurrent randomized equivalence
// suite (run under -race by the soak tier): many goroutines stream the
// same and different queries against metasearchers, one per merge
// strategy, sharing one cache; every stream — leader, coalesced follower,
// or cache hit — must satisfy the event contract against its own returned
// answer.
func TestSearchStreamAcceptance(t *testing.T) {
	cache := qcache.New(qcache.Config{TTL: time.Hour})

	queries := []string{
		`list((body-of-text "databases"))`,
		`list((body-of-text "metasearch") (body-of-text "ranking"))`,
		`list((body-of-text "compost"))`,
		`list((body-of-text "archive") (body-of-text "records"))`,
	}
	var searchers []*Metasearcher
	for _, strat := range []merge.Strategy{merge.TermStats{}, merge.RoundRobin{}, merge.Scaled{}} {
		ms, _ := fleetWith(t, Options{Merger: strat, Timeout: 5 * time.Second, Cache: cache})
		searchers = append(searchers, ms)
	}

	const rounds = 3
	var wg sync.WaitGroup
	errc := make(chan error, rounds*len(queries)*len(searchers))
	for r := 0; r < rounds; r++ {
		for _, qs := range queries {
			for _, ms := range searchers {
				wg.Add(1)
				go func(qs string, ms *Metasearcher) {
					defer wg.Done()
					q := rankingQuery(t, qs)
					var events []StreamEvent
					ans, err := ms.SearchStream(context.Background(), q, func(ev StreamEvent) error {
						events = append(events, ev)
						return nil
					})
					if err != nil {
						errc <- err
						return
					}
					var got []*result.Document
					for i, ev := range events {
						if (ev.Final != nil) != (i == len(events)-1) {
							errc <- fmt.Errorf("event %d/%d: Final misplaced", i, len(events))
							return
						}
						got = append(got, ev.Docs...)
					}
					if len(got) != len(ans.Documents) {
						errc <- fmt.Errorf("streamed %d docs, answer has %d", len(got), len(ans.Documents))
						return
					}
					for i := range got {
						if got[i] != ans.Documents[i] {
							errc <- fmt.Errorf("streamed doc %d diverges from answer", i)
							return
						}
					}
				}(qs, ms)
			}
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// slowRefusal, once refusing is set, refuses cs — only when wait closes;
// everything else it admits.
type slowRefusal struct {
	fakeGate
	refusing atomic.Bool
	wait     chan struct{}
}

func (g *slowRefusal) Allow(id string) bool {
	if id == "cs" && g.refusing.Load() {
		<-g.wait
		return false
	}
	return g.fakeGate.Allow(id)
}

// TestStreamSkipsRefusedSource: a source whose call the breaker refuses,
// last of all, gets no per-source event, yet the documents its slot's
// resolution makes rank-stable still reach the stream, in rank order: the
// streamed documents are the answer's.
func TestStreamSkipsRefusedSource(t *testing.T) {
	gate := &slowRefusal{wait: make(chan struct{})}
	ms, _ := fleetWith(t, Options{Merger: merge.RoundRobin{}, Timeout: 5 * time.Second, Breaker: gate})
	defer ms.Close()
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	gate.refusing.Store(true)
	var events []StreamEvent
	others := 0
	q := rankingQuery(t, `list((body-of-text "databases") (body-of-text "metasearch"))`)
	ans, err := ms.SearchStream(context.Background(), q, func(ev StreamEvent) error {
		events = append(events, ev)
		if ev.SourceID != "" {
			if others++; others == 1 {
				close(gate.wait) // cs resolves after another source answered
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamShape(t, ans, events)
	for _, ev := range events {
		if ev.SourceID == "cs" {
			t.Error("the refused source got a per-source event")
		}
	}
	if others != len(ans.Contacted) || slices.Contains(ans.Contacted, "cs") ||
		!slices.Equal(ans.Degraded.Skipped, []string{"cs"}) || len(ans.Documents) == 0 {
		t.Errorf("%d per-source events, contacted %v, degraded %s, %d docs", others, ans.Contacted, ans.Degraded, len(ans.Documents))
	}
}
