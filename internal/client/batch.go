package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
)

// BatchConn is a Conn that can evaluate several queries in one wire
// call. STARTS' same-resource facility allows a single request to carry
// multiple queries for a source; HTTPConn sends them to the server's
// query-batch route, which startsd serves for any client that wants it.
// The metasearch core does not: it sends each sub-query as its own
// Query call.
//
// QueryBatch returns one result or one error per input query, aligned
// by index (len(results) == len(errs) == len(qs); exactly one of
// results[i], errs[i] is non-nil). A failure of one item must not fail
// the others: transport-level breakage fills every still-unresolved
// slot, but per-item errors stay per-item.
type BatchConn interface {
	Conn
	// QueryBatch evaluates qs at the source in one wire call.
	QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error)
}

// splitBatchErr fills every still-unresolved slot with err. It is the
// transport-breakage rule: items already decoded off the wire keep
// their results; everything after the break fails.
func splitBatchErr(results []*result.Results, errs []error, err error) {
	for i := range errs {
		if results[i] == nil && errs[i] == nil {
			errs[i] = err
		}
	}
}

// QueryBatch submits qs in one POST to a source's batch query URL and
// stream-decodes the per-item frames as they arrive off the wire, so
// early items resolve before the server has finished the late ones.
// The returned slices are index-aligned with qs; a broken stream fails
// only the items not yet decoded.
func (c *Client) QueryBatch(ctx context.Context, url string, qs []*query.Query) ([]*result.Results, []error) {
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	if len(qs) == 0 {
		return results, errs
	}
	objs := make([]*soif.Object, len(qs))
	for i, q := range qs {
		var err error
		if objs[i], err = q.ToSOIF(); err != nil {
			splitBatchErr(results, errs, fmt.Errorf("client: encoding batch query %d: %w", i, err))
			return results, errs
		}
	}
	body, err := soif.MarshalAll(objs)
	if err != nil {
		splitBatchErr(results, errs, fmt.Errorf("client: encoding batch request: %w", err))
		return results, errs
	}
	rc, err := c.open(ctx, http.MethodPost, url, body)
	if err != nil {
		splitBatchErr(results, errs, err)
		return results, errs
	}
	defer rc.Close()
	c.decodeBatch(io.LimitReader(rc, maxResponseBytes), qs, results, errs)
	return results, errs
}

// decodeBatch consumes a batch response stream frame by frame, filling
// the index-aligned results/errs slots. Exposed through QueryBatch; it
// is separate so tests can drive it from an arbitrary reader.
func (c *Client) decodeBatch(r io.Reader, qs []*query.Query, results []*result.Results, errs []error) {
	dec := soif.NewDecoder(r)
	defer dec.Release()
	seen := 0
	for seen < len(qs) {
		idx, res, itemErr, err := result.DecodeBatchItem(dec)
		if err == io.EOF {
			splitBatchErr(results, errs, fmt.Errorf("client: batch response ended after %d of %d items", seen, len(qs)))
			return
		}
		if err != nil {
			// The stream itself broke mid-frame: items already decoded
			// keep their results, everything else fails.
			splitBatchErr(results, errs, fmt.Errorf("client: batch response broke after %d of %d items: %w", seen, len(qs), err))
			return
		}
		if idx >= len(qs) {
			splitBatchErr(results, errs, fmt.Errorf("client: batch response named item %d of a %d-item request", idx, len(qs)))
			return
		}
		if results[idx] != nil || errs[idx] != nil {
			splitBatchErr(results, errs, fmt.Errorf("client: batch response repeated item %d", idx))
			return
		}
		if itemErr != nil {
			errs[idx] = itemErr
		} else {
			results[idx] = res
		}
		seen++
	}
}

// QueryBatch implements BatchConn: one wire call against the source's
// batch endpoint (the query URL with a "-batch" suffix, the convention
// the server registers).
func (h *HTTPConn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	m, err := h.meta(ctx)
	if err != nil {
		results := make([]*result.Results, len(qs))
		errs := make([]error, len(qs))
		splitBatchErr(results, errs, err)
		return results, errs
	}
	return h.client.QueryBatch(ctx, BatchURL(m.Linkage), qs)
}

// BatchURL derives a source's batch query endpoint from its (metadata-
// declared) query URL.
func BatchURL(queryURL string) string { return queryURL + "-batch" }

// QueryBatch implements BatchConn for in-process sources: items run
// concurrently, mirroring the server-side batch handler.
func (l *LocalConn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q *query.Query) {
			defer wg.Done()
			results[i], errs[i] = l.Query(ctx, q)
		}(i, q)
	}
	wg.Wait()
	return results, errs
}
