package core

import (
	"context"
	"testing"

	"starts/internal/client"
	"starts/internal/query"
	"starts/internal/result"
)

// lyingConn is a conn over a real local source whose Query breaks the
// Conn contract the way lie says.
type lyingConn struct {
	client.Conn
	lie func() (*result.Results, error)
}

func (c lyingConn) Query(context.Context, *query.Query) (*result.Results, error) { return c.lie() }

// TestBatchContractViolationIsPerSourceError: a conn whose Query returns
// neither a result nor an error, or panics, fails as that source's
// outcome — the fan-out must not meet the nil result — while the other
// sources still answer.
func TestBatchContractViolationIsPerSourceError(t *testing.T) {
	lies := map[string]func() (*result.Results, error){
		"nil-nil-slot": func() (*result.Results, error) { return nil, nil },
		"panic":        func() (*result.Results, error) { panic("conn bug") },
	}
	for name, lie := range lies {
		t.Run(name, func(t *testing.T) {
			ms, srcs := fleet(t)
			defer ms.Close()
			ms.Add(lyingConn{Conn: client.NewLocalConn(srcs["cs"], nil), lie: lie})
			ans, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`))
			if err != nil {
				t.Fatalf("search failed outright: %v", err)
			}
			if oc := ans.PerSource["cs"]; oc == nil || oc.Err == nil {
				t.Errorf("cs outcome = %+v, want a per-source error", oc)
			}
			if oc := ans.PerSource["archive"]; oc == nil || oc.Err != nil || len(ans.Documents) == 0 {
				t.Errorf("archive outcome = %+v with %d merged documents, want a clean answer", oc, len(ans.Documents))
			}
		})
	}
}
