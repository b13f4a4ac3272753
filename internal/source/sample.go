package source

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
)

// SampleCollection returns the canonical calibration collection: a small,
// fixed set of documents with controlled term-frequency structure that
// every source indexes identically. Because metasearchers know exactly
// what is in it, the scores a source reports for the sample queries reveal
// how its secret ranking algorithm behaves.
func SampleCollection() []*index.Document {
	date := func(y int) time.Time { return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC) }
	return []*index.Document{
		{
			Linkage: "sample://doc-1",
			Title:   "Distributed query processing",
			Authors: []string{"Sample Author One"},
			Body:    "distributed distributed distributed query processing engines",
			Date:    date(1990),
		},
		{
			Linkage: "sample://doc-2",
			Title:   "Query optimization in database systems",
			Authors: []string{"Sample Author Two"},
			Body:    "query optimization database database systems transactions",
			Date:    date(1991),
		},
		{
			Linkage: "sample://doc-3",
			Title:   "Database systems overview",
			Authors: []string{"Sample Author Three"},
			Body:    "database database database database systems overview concurrency recovery",
			Date:    date(1992),
		},
		{
			Linkage: "sample://doc-4",
			Title:   "Information retrieval evaluation",
			Authors: []string{"Sample Author Four"},
			Body:    "retrieval evaluation precision recall ranking relevance distributed collections",
			Date:    date(1993),
		},
		{
			Linkage: "sample://doc-5",
			Title:   "Unrelated gardening notes",
			Authors: []string{"Sample Author Five"},
			Body:    "tomato cucumber watering pruning soil compost seasons harvest",
			Date:    date(1994),
		},
	}
}

// SampleQueries returns the canonical calibration queries: single- and
// multi-term ranking queries over the sample collection with known term
// distributions.
func SampleQueries() []*query.Query {
	mk := func(ranking string) *query.Query {
		q := query.New()
		r, err := query.ParseRanking(ranking)
		if err != nil {
			panic(fmt.Sprintf("source: bad sample query %q: %v", ranking, err))
		}
		q.Ranking = r
		q.MaxResults = len(SampleCollection())
		return q
	}
	return []*query.Query{
		mk(`list((body-of-text "database"))`),
		mk(`list((body-of-text "distributed"))`),
		mk(`list((body-of-text "query") (body-of-text "database"))`),
		mk(`list((body-of-text "retrieval") (body-of-text "ranking") (body-of-text "evaluation"))`),
	}
}

// ParseSample decodes a sample-results stream produced by AppendSample:
// alternating @SQuery objects and answers, each read as result.Decode
// reads one.
func ParseSample(data []byte) ([]*SampleEntry, error) {
	dec := soif.NewDecoder(bytes.NewReader(data))
	defer dec.Release()
	var out []*SampleEntry
	for {
		o, err := dec.Next()
		if errors.Is(err, io.EOF) && len(out) > 0 {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("source: sample stream: entry %d: %w", len(out), err)
		}
		q, err := query.FromSOIF(o)
		if err != nil {
			return nil, fmt.Errorf("source: sample stream: entry %d: %w", len(out), err)
		}
		res, err := result.Decode(dec)
		if err != nil {
			return nil, fmt.Errorf("source: sample stream: results of entry %d: %w", len(out), err)
		}
		out = append(out, &SampleEntry{Query: q, Results: res})
	}
}
