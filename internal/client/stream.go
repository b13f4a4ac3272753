package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
)

// StreamConn is a Conn that can deliver a query's answer incrementally:
// sink receives each @SQStreamItem frame as it arrives — rank-stable
// document slices first, one terminal frame last — and QueryStream then
// returns the complete final answer, identical to what Query would have
// returned. A nil sink degrades to Query semantics over the streaming
// wire. If the sink returns an error, delivery stops and QueryStream
// returns that error (the final answer, when already decoded, comes
// with it).
//
// StreamConn is a leaf capability: HTTPConn, LocalConn and core.Broker
// implement it and the server's ?stream=1 route consumes it. The conn
// middlewares do not forward it, so a wrapped conn answers ?stream=1
// with a single terminal frame.
type StreamConn interface {
	Conn
	// QueryStream evaluates q, delivering frames to sink as they arrive.
	QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error)
}

// StreamURL derives a source's streaming query endpoint from its
// (metadata-declared) query URL: the same route, asked to frame its
// response incrementally.
func StreamURL(queryURL string) string {
	sep := "?"
	if strings.Contains(queryURL, "?") {
		sep = "&"
	}
	return queryURL + sep + "stream=1"
}

// QueryStream submits q to a source's streaming query URL and decodes
// the @SQStreamItem frames off the wire as the server flushes them, so
// sink sees the first rank-stable documents while the source (or the
// broker fan-out behind it) is still working on the rest. It returns
// the terminal frame's complete answer, which ends the response. The
// response body is never buffered whole before decoding — that buffering
// is exactly what streaming exists to avoid.
func (c *Client) QueryStream(ctx context.Context, url string, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	body, err := q.Marshal()
	if err != nil {
		return nil, err
	}
	rc, err := c.open(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	dec := soif.NewDecoder(rc)
	defer dec.Release()
	dec.Limit(maxResponseBytes)
	for {
		it, err := result.DecodeStreamItem(dec)
		switch {
		case err == io.EOF:
			return nil, fmt.Errorf("client: streaming %s: response ended without a terminal answer", url)
		case err != nil:
			return nil, fmt.Errorf("client: streaming %s: %w", url, err)
		case it.Err != nil:
			return nil, it.Err
		}
		if sink != nil {
			if serr := sink(it); serr != nil {
				return it.Final, serr
			}
		}
		if it.Final != nil {
			return it.Final, nil
		}
	}
}

// QueryStream implements StreamConn over the wire, to the streaming URL
// derived once from the fetched metadata.
func (h *HTTPConn) QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	_, url, err := h.meta(ctx)
	if err != nil {
		return nil, err
	}
	return h.client.QueryStream(ctx, url, q, sink)
}

// QueryStream implements StreamConn for in-process sources: the whole
// answer is available at once, so the stream is a single terminal frame
// — the degenerate stream every consumer must accept anyway.
func (l *LocalConn) QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	rr, err := l.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		if serr := sink(result.StreamItem{Final: rr}); serr != nil {
			return rr, serr
		}
	}
	return rr, nil
}
