package main

import (
	"context"
	"fmt"
	"slices"

	"starts/internal/core"
	"starts/internal/query"
	"starts/internal/result"
)

// oracleQueries is how many pool queries the oracle checks per run.
const oracleQueries = 64

// rankedList is an answer reduced to what the oracle compares: document
// identity and merged score, in rank order.
func rankedList(docs []*result.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = fmt.Sprintf("%s %v", d.Linkage(), d.RawScore)
	}
	return out
}

// checkOracle answers a seeded sample of the pool twice — through the
// workload's own rig (over HTTP, streamed, cached, block-pruned, as the
// workload runs it) and through a reference broker over in-process conns
// with no cache, batch Search and the exhaustive-engine fleet ref built
// from the same seed — and requires identical ranked lists. On the
// streamed workload the streamed prefix plus remainder must equal the
// final answer too.
func checkOracle(w *workload, r *rig, ref *fleet, pool []*query.Query, seed int64) error {
	refW := *w
	refW.RateQPS, refW.CacheEntries = 0, 0
	refRig := wire(&refW, ref, nil)
	defer refRig.close()

	rng := newRand(seed, 99)
	errs := make(chan error, oracleQueries)
	slots := make(chan struct{}, 8) // a WAN answer takes 100 ms; don't wait for them one by one
	for n := 0; n < oracleQueries; n++ {
		q := pool[rng.Intn(len(pool))]
		go func() {
			slots <- struct{}{}
			defer func() { <-slots }()
			errs <- checkAnswer(w, r, refRig, q)
		}()
	}
	var first error
	for n := 0; n < oracleQueries; n++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func checkAnswer(w *workload, r, refRig *rig, q *query.Query) error {
	ctx := context.Background()
	want, err := refRig.ms.Search(ctx, q)
	if err != nil {
		return fmt.Errorf("oracle: reference search %v: %w", q.Ranking, err)
	}
	var streamed []*result.Document
	var got *core.Answer
	if w.wan() {
		got, err = r.ms.SearchStream(ctx, q, func(ev core.StreamEvent) error {
			if ev.Rank != len(streamed) {
				return fmt.Errorf("stream event at rank %d after %d documents", ev.Rank, len(streamed))
			}
			streamed = append(streamed, ev.Docs...)
			return nil
		})
	} else {
		got, err = r.ms.Search(ctx, q)
	}
	if err != nil {
		return fmt.Errorf("oracle: search %v: %w", q.Ranking, err)
	}
	if failedAnswer(got, nil) || failedAnswer(want, nil) {
		return fmt.Errorf("oracle: degraded answer for %v: %s / reference %s", q.Ranking, got.Degraded, want.Degraded)
	}
	if a, b := rankedList(got.Documents), rankedList(want.Documents); !slices.Equal(a, b) {
		return fmt.Errorf("oracle: %v filter %v: got %d docs %v, reference %d docs %v",
			q.Ranking, q.Filter, len(a), head(a), len(b), head(b))
	}
	if w.wan() && !slices.Equal(rankedList(streamed), rankedList(want.Documents)) {
		return fmt.Errorf("oracle: %v: streamed prefix + remainder differs from the reference", q.Ranking)
	}
	return nil
}

func head(v []string) []string {
	if len(v) > 3 {
		return v[:3]
	}
	return v
}
