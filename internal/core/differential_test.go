package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/corpus"
	"starts/internal/engine"
	"starts/internal/faulty"
	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// heldMerger is TermStats whose every Merge signals entered and waits
// for hold to close: it keeps cache fills in flight together.
type heldMerger struct {
	merge.TermStats
	entered, hold chan struct{}
}

func (h heldMerger) Merge(q *query.Query, in []merge.SourceResult) []*result.Document {
	h.entered <- struct{}{}
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
// answer a search gets without the cache, as the cache's filler, as a
// cache hit and as two identical searches filling the cache together are
// one answer. Queries 13 and 22 of the pool send a filter to the
// ranking-only source, so verification mode has terms to report.
func TestCachedAnswerEqualsUncached(t *testing.T) {
	conns, pool := coldSources(t)
	opts := func(postFilter bool, merger merge.Strategy, cache *qcache.Cache) Options {
		return Options{MaxSources: 3, Timeout: 15 * time.Second, PostFilter: postFilter, Merger: merger, Cache: cache}
	}
	brokers := map[bool]*Metasearcher{}
	for _, postFilter := range []bool{false, true} {
		brokers[postFilter] = coldBroker(t, conns, opts(postFilter, nil, qcache.New(qcache.Config{TTL: time.Hour})))
	}
	ctx := context.Background()
	filtered, verified := 0, 0
	for _, i := range []int{0, 1, 2, 3, 4, 5, 13, 22} {
		q := pool[i]
		if q.Filter != nil {
			filtered++
		}
		for _, postFilter := range []bool{false, true} {
			ms := brokers[postFilter]
			t.Run(fmt.Sprintf("q%d/postfilter=%v", i, postFilter), func(t *testing.T) {
				served := func(tr *obs.Trace) string {
					if sp := tr.Snapshot().Find("cache"); sp != nil {
						out, _ := sp.Attr("outcome")
						return out
					}
					return ""
				}
				search := func(ms *Metasearcher, want string, sopts ...SearchOption) *Answer {
					t.Helper()
					var tr obs.Trace
					ans, err := ms.Search(ctx, q, append(sopts, WithTrace(&tr))...)
					if err != nil {
						t.Fatal(err)
					}
					if got := served(&tr); got != want {
						t.Fatalf("served %q, want %q", got, want)
					}
					return ans
				}
				want := answerPrint(search(ms, "", WithNoCache()))
				if got := answerPrint(search(ms, qcache.Filled.String())); got != want {
					t.Errorf("filled answer differs from uncached:\n%s\nvs\n%s", got, want)
				}
				hit := search(ms, qcache.Hit.String())
				if got := answerPrint(hit); got != want {
					t.Errorf("cache hit differs from uncached:\n%s\nvs\n%s", got, want)
				}
				if postFilter && len(hit.Unverifiable) > 0 {
					verified++
				}

				// A concurrent identical search gets the same answer: two
				// misses, both held in their merge until both got there.
				held := heldMerger{entered: make(chan struct{}, 2), hold: make(chan struct{})}
				fresh := coldBroker(t, conns, opts(postFilter, held, qcache.New(qcache.Config{TTL: time.Hour})))
				prints := make(chan string, 2)
				for range 2 {
					go func() {
						var tr obs.Trace
						ans, err := fresh.Search(ctx, q, WithTrace(&tr))
						if err != nil {
							prints <- err.Error()
							return
						}
						prints <- served(&tr) + "\n" + answerPrint(ans)
					}()
					<-held.entered
				}
				close(held.hold)
				for range 2 {
					if got := <-prints; got != qcache.Filled.String()+"\n"+want {
						t.Errorf("concurrent identical search differs from uncached:\n%s\nvs\n%s", got, want)
					}
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

// faultyFleet is four in-process sources behind fault injection, harvested
// while healthy; then the first fails every query and the second answers
// each one 20 ms late. It returns a pool of distinct queries, 30 %
// filtered.
func faultyFleet(t *testing.T) (*Metasearcher, []*query.Query) {
	t.Helper()
	g := corpus.Generate(corpus.Config{Seed: 11, NumSources: 4, DocsPerSource: 200, VocabWords: 300})
	ms := New(Options{Timeout: 5 * time.Second})
	t.Cleanup(ms.Close)
	var conns []*faulty.Conn
	for _, spec := range g.Sources {
		eng, err := engine.NewWithDocs(engine.NewVectorConfig(), spec.Docs, 0)
		if err != nil {
			t.Fatal(err)
		}
		src, err := source.New(spec.ID, eng)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, faulty.WrapConn(client.NewLocalConn(src, nil), faulty.Config{}))
		ms.Add(conns[len(conns)-1])
	}
	if err := ms.Harvest(context.Background()); err != nil {
		t.Fatal(err)
	}
	conns[0].SetFailing(true)
	conns[1].SetLatency(20 * time.Millisecond)
	var pool []*query.Query
	for _, wq := range corpus.Workload(g, corpus.WorkloadConfig{Seed: 11, NumQueries: 12}) {
		pool = append(pool, wq.Query)
	}
	return ms, pool
}

// TestStreamMatchesBatchUnderFaults holds a streamed search to the batch
// one while sources misbehave: one fails every query and one answers
// last, so the stream's events arrive around a failure and ahead of a
// straggler. Each query's streamed answer — documents, score bits,
// sources, term statistics and degradation — is the batch answer.
func TestStreamMatchesBatchUnderFaults(t *testing.T) {
	ms, pool := faultyFleet(t)
	failed := 0
	for i, q := range pool {
		batch, err := ms.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		streamed, events := collectStream(t, ms, q)
		checkStreamShape(t, streamed, events)
		if got, want := answerPrint(streamed), answerPrint(batch); got != want {
			t.Errorf("q%d: streamed answer differs from batch:\n%s\nvs\n%s", i, got, want)
		}
		if len(batch.Degraded.Failed) > 0 {
			failed++
		}
	}
	if failed == 0 {
		t.Errorf("no query of %d reached the failing source", len(pool))
	}
}

// TestStreamSinkCancelsAfterFirstEvent: a caller that gives up from its
// sink, on the first event, gets context.Canceled and no terminal event,
// rather than an answer built from whatever the fan-out had by then — and
// the sources still running are abandoned without leaving a goroutine
// behind (TestMain's leak check).
func TestStreamSinkCancelsAfterFirstEvent(t *testing.T) {
	ms, pool := faultyFleet(t)
	for i, q := range pool[:4] {
		ctx, cancel := context.WithCancel(context.Background())
		final := false
		ans, err := ms.SearchStream(ctx, q, func(ev StreamEvent) error {
			final = final || ev.Final != nil
			cancel()
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || ans != nil || final {
			t.Errorf("q%d: a search cancelled from its sink returned %v, %v (terminal event %v); want context.Canceled", i, ans, err, final)
		}
	}
}
