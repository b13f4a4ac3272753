// Rankmerge: demonstrate the paper's Section 3.2 problem and Section 4.2
// solution. Three sources index overlapping topical collections with
// mutually incompatible ranking algorithms (scores in [0,1), top-doc-1000,
// and raw term frequency). Merging raw scores lets the 0-1000 source crush
// everyone; merging from the returned TermStats recovers a sensible global
// rank, reproducing the Example 9 re-ranking.
//
//	go run ./examples/rankmerge
package main

import (
	"context"
	"fmt"
	"log"

	"starts"
	"starts/internal/corpus"
	"starts/internal/engine"
)

func main() {
	universe := corpus.Generate(corpus.Config{
		Seed: 7, NumSources: 3, DocsPerSource: 120, Overlap: 0.15,
	})
	scorers := []engine.Scorer{engine.TFIDF{}, engine.TopK{}, engine.RawTF{}}

	var conns []starts.Conn
	for i, spec := range universe.Sources {
		cfg := engine.NewVectorConfig()
		cfg.Scorer = scorers[i]
		eng, err := starts.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		src, err := starts.NewSource(spec.ID, eng)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range spec.Docs {
			if err := src.Add(d); err != nil {
				log.Fatal(err)
			}
		}
		conns = append(conns, starts.NewLocalConn(src, nil))
		fmt.Printf("source %-20s ranking algorithm %-7s\n", spec.ID, cfg.Scorer.ID())
	}
	fmt.Println()

	q := starts.NewQuery()
	r, err := starts.ParseRanking(`list((body-of-text "database") (body-of-text "query"))`)
	if err != nil {
		log.Fatal(err)
	}
	q.Ranking = r
	q.MaxResults = 8

	ctx := context.Background()
	for _, strategy := range []starts.MergeStrategy{
		starts.MergeRawScore, starts.MergeScaled, starts.MergeRoundRobin, starts.MergeTermStats,
	} {
		// A merger is fixed when a metasearcher is built, so each
		// strategy gets its own over the same three sources.
		ms := starts.NewMetasearcher(starts.MetasearcherOptions{Merger: strategy})
		for _, c := range conns {
			ms.Add(c)
		}
		answer, err := ms.Search(ctx, q)
		ms.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== merge strategy: %s\n", strategy.Name())
		for i, d := range answer.Documents {
			if i >= 5 {
				break
			}
			fmt.Printf("  %d. score %8.2f  %-45s %v\n", i+1, d.RawScore, clip(d.Title(), 45), d.Sources)
		}
		fmt.Println()
	}
	fmt.Println("note how raw-score merging is dominated by the 0-1000 source,")
	fmt.Println("while term-stats merging mixes sources on content, not scale.")
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n-3] + "..."
	}
	return s
}
