package client

import (
	"context"
	"testing"

	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/source"
)

// TestLocalConnQueryBatch exercises the in-process batch path.
func TestLocalConnQueryBatch(t *testing.T) {
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New("L1", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Add(&index.Document{
		Linkage: "http://l1/doc", Title: "Databases and gardening",
		Body: "Databases, gardening, and distributed compost.",
	}); err != nil {
		t.Fatal(err)
	}
	var bc BatchConn = NewLocalConn(src, nil) // compile-time capability pin
	q1 := query.New()
	r1, err := query.ParseRanking(`list((any "databases"))`)
	if err != nil {
		t.Fatal(err)
	}
	q1.Ranking = r1
	q2 := query.New()
	r2, err := query.ParseRanking(`list((any "gardening"))`)
	if err != nil {
		t.Fatal(err)
	}
	q2.Ranking = r2
	results, errs := bc.QueryBatch(context.Background(), []*query.Query{q1, q2})
	if len(results) != 2 || len(errs) != 2 {
		t.Fatalf("got %d results, %d errs", len(results), len(errs))
	}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("item %d: nil result", i)
		}
	}
}
