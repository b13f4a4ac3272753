package client

import (
	"context"
	"sync"

	"starts/internal/query"
	"starts/internal/result"
)

// BatchConn is a Conn that answers several queries in one call. It is no
// longer one wire call: STARTS carries one @SQuery per request, and both
// implementations run one concurrent Query per item. It remains only
// because the benchmark's wire shim embeds it.
//
// QueryBatch returns one result or one error per input query, aligned
// by index (len(results) == len(errs) == len(qs)); one item's failure
// never fails the others.
type BatchConn interface {
	Conn
	// QueryBatch evaluates qs at the source, one Query per item.
	QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error)
}

// queryEach runs one concurrent c.Query per item of qs, results and
// errors index-aligned with qs.
func queryEach(ctx context.Context, c Conn, qs []*query.Query) ([]*result.Results, []error) {
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q *query.Query) {
			defer wg.Done()
			results[i], errs[i] = c.Query(ctx, q)
		}(i, q)
	}
	wg.Wait()
	return results, errs
}

// QueryBatch implements BatchConn with one concurrent Query per item.
func (h *HTTPConn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	return queryEach(ctx, h, qs)
}

// QueryBatch implements BatchConn with one concurrent Query per item.
func (l *LocalConn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	return queryEach(ctx, l, qs)
}
