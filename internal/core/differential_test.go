package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
)

// heldMerger is TermStats whose one Merge closes entered and waits for
// hold to close: it keeps a cache fill in flight while a follower joins.
type heldMerger struct {
	merge.TermStats
	entered, hold chan struct{}
}

func (h heldMerger) Merge(q *query.Query, in []merge.SourceResult) []*result.Document {
	close(h.entered)
	<-h.hold
	return h.TermStats.Merge(q, in)
}

// answerPrint renders what a cached and an uncached answer must agree on:
// every document's id, raw score bits, sources and term statistics, the
// selection, the contacted sources, the per-source keys, the unverifiable
// terms and the degradation (a stale serve's mark aside).
func answerPrint(ans *Answer) string {
	s := ""
	for _, d := range ans.Documents {
		s += fmt.Sprintf("%s %x %v %v\n", d.Linkage(), math.Float64bits(d.RawScore), d.Sources, d.TermStats)
	}
	keys := make([]string, 0, len(ans.PerSource))
	for id := range ans.PerSource {
		keys = append(keys, id)
	}
	sort.Strings(keys)
	deg := ans.Degraded
	deg.StaleAnswer = false
	return s + fmt.Sprintf("selected %v\ncontacted %v\nper-source %v\nunverifiable %v\ndegraded %+v\n",
		ans.Selected, ans.Contacted, keys, ans.Unverifiable, deg)
}

// TestCachedAnswerEqualsUncached holds the answer cache to the pipeline
// it fronts: for several queries, plain and in verification mode, the
// answer a search gets without the cache, as the cache's filling leader,
// as a cache hit and as a follower coalesced onto another search's fill
// are one answer. Queries 13 and 22 of the pool send a filter to the
// ranking-only source, so verification mode has terms to report.
func TestCachedAnswerEqualsUncached(t *testing.T) {
	ms, pool := coldFleet(t)
	ctx := context.Background()
	filtered, verified := 0, 0
	for _, i := range []int{0, 1, 2, 3, 4, 5, 13, 22} {
		q := pool[i]
		if q.Filter != nil {
			filtered++
		}
		for _, postFilter := range []bool{false, true} {
			t.Run(fmt.Sprintf("q%d/postfilter=%v", i, postFilter), func(t *testing.T) {
				served := func(tr *obs.Trace) string {
					if sp := tr.Snapshot().Find("cache"); sp != nil {
						out, _ := sp.Attr("outcome")
						return out
					}
					return ""
				}
				search := func(want string, sopts ...SearchOption) *Answer {
					t.Helper()
					var tr obs.Trace
					ans, err := ms.Search(ctx, q, append(sopts, WithPostFilter(postFilter), WithTrace(&tr))...)
					if err != nil {
						t.Fatal(err)
					}
					if got := served(&tr); got != want {
						t.Fatalf("served %q, want %q", got, want)
					}
					return ans
				}
				want := answerPrint(search("", WithNoCache()))
				if got := answerPrint(search(qcache.Filled.String())); got != want {
					t.Errorf("filled answer differs from uncached:\n%s\nvs\n%s", got, want)
				}
				hit := search(qcache.Hit.String())
				if got := answerPrint(hit); got != want {
					t.Errorf("cache hit differs from uncached:\n%s\nvs\n%s", got, want)
				}
				if postFilter && len(hit.Unverifiable) > 0 {
					verified++
				}

				// A follower joins a leader whose fill is held in its merge.
				reg := obs.NewRegistry()
				held := heldMerger{entered: make(chan struct{}), hold: make(chan struct{})}
				fresh := []SearchOption{WithCache(qcache.New(qcache.Config{TTL: time.Hour, Metrics: reg})), WithMerger(held)}
				lead := make(chan *Answer, 1)
				go func() {
					ans, _ := ms.Search(ctx, q, append(fresh, WithPostFilter(postFilter))...)
					lead <- ans
				}()
				<-held.entered
				go func() { // releases the leader once the follower joined, or gives up
					for deadline := time.Now().Add(5 * time.Second); reg.Counter(obs.MQCacheCoalesced).Value() == 0 && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					close(held.hold)
				}()
				follower := search(qcache.Coalesced.String(), fresh...)
				if got := answerPrint(follower); got != want {
					t.Errorf("coalesced answer differs from uncached:\n%s\nvs\n%s", got, want)
				}
				if ans := <-lead; ans == nil || answerPrint(ans) != want {
					t.Errorf("the held leader's answer differs from uncached")
				}
			})
		}
	}
	if filtered == 0 || verified == 0 {
		t.Errorf("the sample exercised %d filtered queries and %d unverifiable reports; want some of each", filtered, verified)
	}
}

// TestStaleStreamGetsOnlyTheReplay: a SearchStream served a stale answer
// gets exactly one event, the terminal replay of that answer — even when
// its background refresh runs its fan-out and lands while the sink is
// still handling the replay. The refresh streams nowhere.
func TestStaleStreamGetsOnlyTheReplay(t *testing.T) {
	clk := newTestClock()
	ms, conn, cache := cachedFleet(t, qcache.Config{TTL: time.Minute, Now: clk.now})
	ctx := context.Background()
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	if _, err := ms.Search(ctx, q); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute) // expired, inside the stale window

	var events []StreamEvent
	ans, err := ms.SearchStream(ctx, q, func(ev StreamEvent) error {
		events = append(events, ev)
		// Hold the sink until the refresh has fanned out and stored its
		// answer, so any event it would stream arrives while this runs.
		deadline := time.Now().Add(5 * time.Second)
		for _, fresh := cache.Get(ms.CacheKey(q)); !fresh; _, fresh = cache.Get(ms.CacheKey(q)) {
			if time.Now().After(deadline) {
				t.Error("the background refresh never landed")
				break
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded.StaleAnswer {
		t.Fatal("the answer was not served stale")
	}
	if got := conn.queries.Load(); got != 2 {
		t.Fatalf("source queried %d times, want the prime and the refresh", got)
	}
	if len(events) != 1 {
		t.Fatalf("stale stream got %d events, want the one terminal replay", len(events))
	}
	if ev := events[0]; ev.Final != ans || ev.SourceID != "" || !reflect.DeepEqual(ev.Docs, ans.Documents) {
		t.Fatalf("the one event is not the replay of the served answer: %+v", ev)
	}
}
