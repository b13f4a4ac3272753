package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"starts/internal/query"
)

// WorkloadConfig controls query generation.
type WorkloadConfig struct {
	Seed int64
	// NumQueries is the workload size.
	NumQueries int
	// MaxTerms bounds ranking-expression length (default 3).
	MaxTerms int
	// FilterFraction of queries also carry a filter expression built from
	// topic words (default 0.3; pass a negative value for none).
	FilterFraction float64
	// MaxResults is stamped on every query (default 20).
	MaxResults int
}

// WorkloadQuery pairs a generated query with its ground truth hooks.
type WorkloadQuery struct {
	Query *query.Query
	// Topic is the vocabulary the terms were drawn from; sources with
	// that primary topic are the "right" ones to contact.
	Topic string
	// Terms are the raw ranking words.
	Terms []string
}

// Workload generates a deterministic query stream over a universe: each
// query draws 1..MaxTerms words from one topic's vocabulary (Zipf-biased
// toward common words, occasionally deep tail).
func Workload(g *Generated, cfg WorkloadConfig) []*WorkloadQuery {
	if cfg.NumQueries <= 0 {
		cfg.NumQueries = 50
	}
	if cfg.MaxTerms <= 0 {
		cfg.MaxTerms = 3
	}
	if cfg.FilterFraction == 0 {
		cfg.FilterFraction = 0.3
	} else if cfg.FilterFraction < 0 {
		cfg.FilterFraction = 0
	}
	if cfg.MaxResults <= 0 {
		cfg.MaxResults = 20
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []*WorkloadQuery
	for i := 0; i < cfg.NumQueries; i++ {
		topic := g.Topics[rng.Intn(len(g.Topics))]
		vocab := zipfOf(len(topic.Words))
		n := 1 + rng.Intn(cfg.MaxTerms)
		seen := map[string]bool{}
		var terms []string
		for len(terms) < n {
			w := topic.Words[vocab.pick(rng)]
			if !seen[w] {
				seen[w] = true
				terms = append(terms, w)
			}
		}
		wq := &WorkloadQuery{Topic: topic.Name, Terms: terms}
		q := query.New()
		q.MaxResults = cfg.MaxResults
		var items []string
		for _, t := range terms {
			items = append(items, fmt.Sprintf(`(body-of-text "%s")`, t))
		}
		ranking, err := query.ParseRanking("list(" + strings.Join(items, " ") + ")")
		if err != nil {
			panic(fmt.Sprintf("corpus: generated unparsable ranking: %v", err))
		}
		q.Ranking = ranking
		if rng.Float64() < cfg.FilterFraction {
			f, err := query.ParseFilter(fmt.Sprintf(`(body-of-text "%s")`, terms[0]))
			if err != nil {
				panic(fmt.Sprintf("corpus: generated unparsable filter: %v", err))
			}
			q.Filter = f
		}
		wq.Query = q
		out = append(out, wq)
	}
	return out
}
