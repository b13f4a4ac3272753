package merge

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"starts/internal/attr"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
)

// scenario is one randomized fleet: a roster plus each slot's results
// (nil marks a source that will fail).
type scenario struct {
	roster  []StreamSource
	results []*result.Results
}

// genScenario builds a deterministic scenario from seed. Generating
// twice with the same seed yields two independent deep copies, which the
// equivalence tests need because Merge mutates documents in place.
func genScenario(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed))
	nSrc := 2 + rng.Intn(4)
	pool := 6 + rng.Intn(18) // shared linkage pool => cross-source duplicates
	var sc scenario
	for s := 0; s < nSrc; s++ {
		id := fmt.Sprintf("S%d", s)
		var m *meta.SourceMeta
		if rng.Intn(2) == 0 {
			// An honest declared range: no score exceeds it.
			m = &meta.SourceMeta{ScoreMin: 0, ScoreMax: 10}
		}
		sc.roster = append(sc.roster, StreamSource{
			SourceID: id,
			Meta:     m,
			Summary:  &meta.ContentSummary{NumDocs: 50 + rng.Intn(500)},
		})
		if rng.Intn(6) == 0 {
			sc.results = append(sc.results, nil)
			continue
		}
		nd := rng.Intn(8)
		if nd > pool {
			nd = pool
		}
		picked := map[int]bool{}
		var docs []*result.Document
		for len(docs) < nd {
			li := rng.Intn(pool)
			score := float64(rng.Intn(100)) / 10 // coarse: ties are common
			if picked[li] {
				continue
			}
			picked[li] = true
			d := doc(fmt.Sprintf("http://pool/doc-%03d", li), score,
				stat(attr.FieldBodyOfText, "alpha", 1+rng.Intn(20), 0, 1+rng.Intn(40)),
				stat(attr.FieldBodyOfText, "beta", rng.Intn(20), 0, 1+rng.Intn(40)))
			d.Sources = []string{id}
			d.Count = 100 + rng.Intn(1000)
			docs = append(docs, d)
		}
		// Sources return ranked answers; round-robin trusts that order.
		sort.SliceStable(docs, func(i, j int) bool { return docs[i].RawScore > docs[j].RawScore })
		sc.results = append(sc.results, &result.Results{Sources: []string{id}, Documents: docs})
	}
	return sc
}

func scenarioQuery(t *testing.T, rng *rand.Rand) *query.Query {
	q := rankQuery(t, `list((body-of-text "alpha") (body-of-text "beta"))`)
	if rng.Intn(2) == 0 {
		q.MaxResults = 1 + rng.Intn(5)
	}
	return q
}

// TestIncrementalEquivalence is the randomized suite for the stability
// bound: for every strategy, across random fleets (duplicates, failed
// sources, declared and undeclared score ranges, result caps) and random
// source-completion permutations, the streamed prefix must equal the
// final rank position for position, and the final rank must be
// bit-identical to a batch Merge of the same inputs.
func TestIncrementalEquivalence(t *testing.T) {
	strategies := []Strategy{RawScore{}, Scaled{}, RoundRobin{}, TermStats{}}
	for _, strat := range strategies {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			for trial := 0; trial < 150; trial++ {
				seed := int64(trial)*97 + 11
				rng := rand.New(rand.NewSource(seed ^ 0x5eed))
				q := scenarioQuery(t, rng)

				// Copy one feeds the incremental merge.
				sc := genScenario(seed)
				inc := NewIncremental(strat, q, sc.roster)
				order := rng.Perm(len(sc.roster))
				var streamed []*result.Document
				for _, slot := range order {
					streamed = append(streamed, inc.Offer(slot, sc.results[slot])...)
				}
				final := inc.Finish()
				if inc.Emitted() != len(streamed) {
					t.Fatalf("trial %d: Emitted()=%d but %d docs streamed", trial, inc.Emitted(), len(streamed))
				}
				if len(streamed) > len(final) {
					t.Fatalf("trial %d: streamed %d docs, final rank has %d", trial, len(streamed), len(final))
				}
				for i, d := range streamed {
					if final[i] != d {
						t.Fatalf("trial %d (%s, order %v): streamed[%d]=%s but final[%d]=%s",
							trial, strat.Name(), order, i, d.Linkage(), i, final[i].Linkage())
					}
				}

				// Copy two is the never-streamed batch reference.
				ref := genScenario(seed)
				var inputs []SourceResult
				for slot, src := range ref.roster {
					if ref.results[slot] == nil {
						continue
					}
					inputs = append(inputs, SourceResult{
						SourceID: src.SourceID, Meta: src.Meta,
						Summary: src.Summary, Results: ref.results[slot],
					})
				}
				var want []*result.Document
				if len(inputs) > 0 {
					want = strat.Merge(q, inputs)
				}
				if len(final) != len(want) {
					t.Fatalf("trial %d: final rank %v, batch rank %v", trial, urls(final), urls(want))
				}
				for i := range want {
					g, w := final[i], want[i]
					if g.Linkage() != w.Linkage() || g.RawScore != w.RawScore {
						t.Fatalf("trial %d rank %d: streamed-final %s (%g) != batch %s (%g)",
							trial, i, g.Linkage(), g.RawScore, w.Linkage(), w.RawScore)
					}
					if fmt.Sprint(g.Sources) != fmt.Sprint(w.Sources) {
						t.Fatalf("trial %d rank %d: sources %v != %v", trial, i, g.Sources, w.Sources)
					}
				}
			}
		})
	}
}

// TestIncrementalEmitsBeforeSlowSource pins the point of the stream: a
// round-robin merge emits the fast source's top document as soon as
// every earlier roster slot has resolved, while another source is still
// pending.
func TestIncrementalEmitsBeforeSlowSource(t *testing.T) {
	q := rankQuery(t, `list((any "x"))`)
	roster := []StreamSource{{SourceID: "fast"}, {SourceID: "slow"}}
	inc := NewIncremental(RoundRobin{}, q, roster)

	a1, a2 := doc("http://a/1", 3), doc("http://a/2", 2)
	got := inc.Offer(0, &result.Results{Documents: []*result.Document{a1, a2}})
	if len(got) != 1 || got[0] != a1 {
		t.Fatalf("with slot 1 pending, emitted %v, want just a/1", urls(got))
	}

	b1 := doc("http://b/1", 9)
	rest := inc.Offer(1, &result.Results{Documents: []*result.Document{b1}})
	want := []*result.Document{b1, a2}
	if len(rest) != len(want) {
		t.Fatalf("after slot 1 arrived, emitted %v", urls(rest))
	}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("after slot 1 arrived, emitted %v", urls(rest))
		}
	}
}

// TestIncrementalUsesDeclaredScoreRange: with raw-score merging, a
// pending source's declared ScoreRange bounds what it can deliver, so an
// arrived document scoring above every pending maximum emits early; one
// below must wait.
func TestIncrementalUsesDeclaredScoreRange(t *testing.T) {
	q := rankQuery(t, `list((any "x"))`)
	roster := []StreamSource{
		{SourceID: "A", Meta: metaWithRange(0, 10)},
		{SourceID: "B", Meta: metaWithRange(0, 5)},
	}
	inc := NewIncremental(RawScore{}, q, roster)
	hi, lo := doc("http://a/hi", 7), doc("http://a/lo", 4)
	got := inc.Offer(0, &result.Results{Documents: []*result.Document{hi, lo}})
	if len(got) != 1 || got[0] != hi {
		t.Fatalf("emitted %v, want just a/hi (7 beats B's max of 5; 4 does not)", urls(got))
	}

	// An undeclared range is unbounded: nothing can emit early.
	inc2 := NewIncremental(RawScore{}, q, []StreamSource{
		{SourceID: "A", Meta: metaWithRange(0, 10)},
		{SourceID: "B"},
	})
	if got := inc2.Offer(0, &result.Results{Documents: []*result.Document{doc("http://a/hi", 7)}}); len(got) != 0 {
		t.Fatalf("emitted %v against an unbounded pending source", urls(got))
	}
}

// TestIncrementalFailureUnblocks: a failed source stops holding the
// stream back.
func TestIncrementalFailureUnblocks(t *testing.T) {
	q := rankQuery(t, `list((any "x"))`)
	roster := []StreamSource{{SourceID: "A", Meta: metaWithRange(0, 10)}, {SourceID: "B"}}
	inc := NewIncremental(RawScore{}, q, roster)
	d := doc("http://a/1", 7)
	if got := inc.Offer(0, &result.Results{Documents: []*result.Document{d}}); len(got) != 0 {
		t.Fatalf("emitted %v with unbounded B pending", urls(got))
	}
	got := inc.Offer(1, nil)
	if len(got) != 1 || got[0] != d {
		t.Fatalf("after B failed, emitted %v", urls(got))
	}
}

// TestIncrementalNonStreamableStrategy: TermStats scores drift as more
// sources report (global document frequencies), so nothing emits early
// and the whole answer comes from Finish — still identical to batch.
func TestIncrementalNonStreamableStrategy(t *testing.T) {
	q := rankQuery(t, `list((body-of-text "distributed") (body-of-text "databases"))`)
	inputs := paperExample9Inputs()
	roster := make([]StreamSource, len(inputs))
	for i, in := range inputs {
		roster[i] = StreamSource{SourceID: in.SourceID, Meta: in.Meta, Summary: in.Summary}
	}
	inc := NewIncremental(TermStats{}, q, roster)
	for i, in := range inputs {
		if got := inc.Offer(i, in.Results); len(got) != 0 {
			t.Fatalf("term-stats emitted early: %v", urls(got))
		}
	}
	final := inc.Finish()
	if len(final) != 2 || final[0].Linkage() != "http://elib.stanford.edu/lagunita.ps" {
		t.Fatalf("final = %v", urls(final))
	}
}

// TestIncrementalStreamedDocsGainAttribution: streamed documents alias
// the final answer's pointers, so the batch Merge at stream end
// completes their duplicate attributions in place.
func TestIncrementalStreamedDocsGainAttribution(t *testing.T) {
	q := rankQuery(t, `list((any "x"))`)
	roster := []StreamSource{
		{SourceID: "A", Meta: metaWithRange(0, 10)},
		{SourceID: "B", Meta: metaWithRange(0, 5)},
	}
	inc := NewIncremental(RawScore{}, q, roster)
	shared := doc("http://shared", 8)
	shared.Sources = []string{"A"}
	got := inc.Offer(0, &result.Results{Documents: []*result.Document{shared}})
	if len(got) != 1 {
		t.Fatalf("emitted %v", urls(got))
	}
	dup := doc("http://shared", 3)
	dup.Sources = []string{"B"}
	inc.Offer(1, &result.Results{Documents: []*result.Document{dup}})
	inc.Finish()
	if fmt.Sprint(got[0].Sources) != "[A B]" {
		t.Fatalf("streamed doc sources = %v, want attribution completed in place", got[0].Sources)
	}
}
