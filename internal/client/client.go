// Package client implements the metasearcher side of the STARTS protocol:
// harvesting resource descriptions, source metadata, content summaries and
// sample results, and submitting queries — over HTTP or directly against
// in-process sources, behind one Conn interface so the metasearch core is
// transport-neutral.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// Conn is one queryable STARTS source as seen by a metasearcher.
type Conn interface {
	// SourceID identifies the source.
	SourceID() string
	// Metadata fetches the source's MBasic-1 metadata.
	Metadata(ctx context.Context) (*meta.SourceMeta, error)
	// Summary fetches the source's content summary.
	Summary(ctx context.Context) (*meta.ContentSummary, error)
	// Sample fetches the source's sample-database results.
	Sample(ctx context.Context) ([]*source.SampleEntry, error)
	// Query evaluates a query at the source.
	Query(ctx context.Context, q *query.Query) (*result.Results, error)
}

// ErrNoResult reports a conn that broke the Conn contract by returning
// neither a result nor an error.
var ErrNoResult = errors.New("client: conn returned neither a result nor an error")

// Ask evaluates q at c and holds c to the Conn contract: a reply with
// neither a result nor an error becomes ErrNoResult, so nothing past
// this call meets a nil result without an error. The metasearch core's
// fan-out and the server's query routes both query through it.
func Ask(ctx context.Context, c Conn, q *query.Query) (*result.Results, error) {
	rr, err := c.Query(ctx, q)
	if err == nil && rr == nil {
		err = ErrNoResult
	}
	return rr, err
}

// Middleware decorates a Conn with one cross-cutting concern — retries,
// fault injection, instrumentation — so wrapping order is explicit and
// composable at the call site instead of buried in nested constructors.
type Middleware func(Conn) Conn

// Chain wraps conn with the given middlewares. The first middleware ends
// up innermost (closest to the source) and the last outermost (it sees
// every call first):
//
//	Chain(conn, faults, observe, retry)
//
// builds retry(observe(faults(conn))) — faults are injected at the
// source, the observer times every attempt, and the retrier decides
// which failures to re-run. Nil middlewares are skipped.
func Chain(conn Conn, mw ...Middleware) Conn {
	for _, m := range mw {
		if m != nil {
			conn = m(conn)
		}
	}
	return conn
}

// maxResponseBytes bounds response bodies read from remote sources.
const maxResponseBytes = 64 << 20

// maxDrainBytes bounds what is read of an error body past its snippet.
const maxDrainBytes = 64 << 10

// Client fetches STARTS objects over HTTP.
type Client struct {
	hc *http.Client
}

// NewClient returns an HTTP STARTS client. A nil httpClient uses a
// default with a 30-second timeout and a transport tuned for the
// metasearch access pattern: a handful of sources each receiving many
// small requests, so idle keep-alive connections per host are worth far
// more than the net/http default of two.
func NewClient(httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return &Client{hc: httpClient}
}

// get is one buffered round trip: open, then read the whole body.
func (c *Client) get(ctx context.Context, url string) ([]byte, error) {
	rc, err := c.open(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	data, err := io.ReadAll(io.LimitReader(rc, maxResponseBytes))
	if err != nil {
		return nil, fmt.Errorf("client: reading %s: %w", url, err)
	}
	return data, nil
}

// open is the one round trip every call makes: it sends the request (a
// non-nil body goes out as SOIF) and returns the open body of a 200
// response for the caller to read and close. Any other status is
// reported as a *StatusError carrying the start of the error body.
func (c *Client) open(ctx context.Context, method, url string, body []byte) (io.ReadCloser, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-soif")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp.Body, nil
	}
	defer resp.Body.Close()
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
	// Drain what is left of a short body so the keep-alive connection is
	// reusable; closing a longer one unread drops the connection instead,
	// so a source streaming an endless error body cannot hold the call.
	_, _ = io.CopyN(io.Discard, resp.Body, maxDrainBytes)
	return nil, &StatusError{
		Method: method, URL: req.URL.String(),
		StatusCode: resp.StatusCode, Status: resp.Status,
		Snippet: truncate(snippet),
	}
}

// StatusError is a non-200 HTTP response from a source. It carries the
// status code so callers (notably the retry layer) can tell transient
// 5xx conditions from permanent 4xx rejections.
type StatusError struct {
	// Method and URL identify the failed request.
	Method string
	URL    string
	// StatusCode and Status are the response's numeric and textual status.
	StatusCode int
	Status     string
	// Snippet is the start of the error body.
	Snippet string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("client: %s %s: %s: %s", e.Method, e.URL, e.Status, e.Snippet)
}

// Temporary reports whether the status is worth retrying: server errors,
// request timeouts and throttling are; other client errors are not.
func (e *StatusError) Temporary() bool {
	return e.StatusCode >= 500 ||
		e.StatusCode == http.StatusRequestTimeout ||
		e.StatusCode == http.StatusTooManyRequests
}

func truncate(b []byte) string {
	const n = 200
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// Resource fetches and decodes an @SResource description.
func (c *Client) Resource(ctx context.Context, url string) (*meta.Resource, error) {
	data, err := c.get(ctx, url)
	if err != nil {
		return nil, err
	}
	return meta.ParseResource(data)
}

// Metadata fetches and decodes an @SMetaAttributes object.
func (c *Client) Metadata(ctx context.Context, url string) (*meta.SourceMeta, error) {
	data, err := c.get(ctx, url)
	if err != nil {
		return nil, err
	}
	return meta.ParseMeta(data)
}

// Summary fetches and decodes an @SContentSummary object.
func (c *Client) Summary(ctx context.Context, url string) (*meta.ContentSummary, error) {
	data, err := c.get(ctx, url)
	if err != nil {
		return nil, err
	}
	return meta.ParseSummary(data)
}

// Sample fetches and decodes a sample-database results stream.
func (c *Client) Sample(ctx context.Context, url string) ([]*source.SampleEntry, error) {
	data, err := c.get(ctx, url)
	if err != nil {
		return nil, err
	}
	return source.ParseSample(data)
}

// Query submits a query to a source's query URL and decodes the results.
// The buffered route's plain @SQResults body is read through the stream
// decoder, as a one-frame stream: QueryStream with no sink.
func (c *Client) Query(ctx context.Context, url string, q *query.Query) (*result.Results, error) {
	return c.QueryStream(ctx, url, q, nil)
}

// HTTPConn is a Conn over a remote source whose endpoints were learned
// from a resource description and source metadata.
type HTTPConn struct {
	client *Client
	id     string
	// MetadataURL is the entry point (from the resource's SourceList);
	// the query/summary/sample URLs come from the fetched metadata.
	metadataURL string

	mu     sync.Mutex
	cached *meta.SourceMeta
	stream string // StreamURL of cached's query URL
}

// NewHTTPConn returns a Conn for the source with the given metadata URL.
func NewHTTPConn(c *Client, sourceID, metadataURL string) *HTTPConn {
	return &HTTPConn{client: c, id: sourceID, metadataURL: metadataURL}
}

// SourceID implements Conn.
func (h *HTTPConn) SourceID() string { return h.id }

// Metadata implements Conn, caching the fetched object for URL discovery.
func (h *HTTPConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	m, err := h.client.Metadata(ctx, h.metadataURL)
	if err != nil {
		return nil, err
	}
	stream := StreamURL(m.Linkage)
	h.mu.Lock()
	h.cached, h.stream = m, stream
	h.mu.Unlock()
	return m, nil
}

// meta returns the metadata the last Metadata call fetched, and the
// streaming query URL derived from it, fetching it once if there is none
// yet. Freshness is not the conn's to judge: the metasearcher re-harvests
// a source past its DateExpires, and that explicit Metadata call is what
// moves the endpoint URLs.
func (h *HTTPConn) meta(ctx context.Context) (*meta.SourceMeta, string, error) {
	h.mu.Lock()
	cached, stream := h.cached, h.stream
	h.mu.Unlock()
	if cached != nil {
		return cached, stream, nil
	}
	m, err := h.Metadata(ctx)
	if err != nil {
		return nil, "", err
	}
	return m, StreamURL(m.Linkage), nil
}

// Summary implements Conn.
func (h *HTTPConn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	m, _, err := h.meta(ctx)
	if err != nil {
		return nil, err
	}
	return h.client.Summary(ctx, m.ContentSummaryLinkage)
}

// Sample implements Conn. A source whose metadata names no
// SampleDatabaseResults exports none, and no request is made.
func (h *HTTPConn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	m, _, err := h.meta(ctx)
	if err != nil {
		return nil, err
	}
	if m.SampleDatabaseResults == "" {
		return nil, fmt.Errorf("client: source %s names no sample-database results", h.id)
	}
	return h.client.Sample(ctx, m.SampleDatabaseResults)
}

// Query implements Conn over the source's streaming route: the answer
// is the stream's terminal frame, read as it arrives, uncompressed, on
// the same framed wire QueryStream uses.
func (h *HTTPConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	return h.QueryStream(ctx, q, nil)
}

// Discover fetches a resource description and returns a Conn per source.
func (c *Client) Discover(ctx context.Context, resourceURL string) ([]Conn, error) {
	res, err := c.Resource(ctx, resourceURL)
	if err != nil {
		return nil, err
	}
	conns := make([]Conn, 0, len(res.Entries))
	for _, e := range res.Entries {
		conns = append(conns, NewHTTPConn(c, e.SourceID, e.MetadataURL))
	}
	return conns, nil
}

// LocalConn is a Conn over an in-process source, for embedding and tests.
type LocalConn struct {
	src *source.Source
	res *source.Resource // optional: enables multi-source queries
}

// NewLocalConn returns a Conn over an in-process source. res may be nil;
// when set, queries naming additional sources route through the resource.
func NewLocalConn(src *source.Source, res *source.Resource) *LocalConn {
	return &LocalConn{src: src, res: res}
}

// SourceID implements Conn.
func (l *LocalConn) SourceID() string { return l.src.ID() }

// Metadata implements Conn.
func (l *LocalConn) Metadata(context.Context) (*meta.SourceMeta, error) {
	return l.src.Metadata(), nil
}

// Summary implements Conn.
func (l *LocalConn) Summary(context.Context) (*meta.ContentSummary, error) {
	return l.src.ContentSummary(), nil
}

// Sample implements Conn.
func (l *LocalConn) Sample(context.Context) ([]*source.SampleEntry, error) {
	return l.src.SampleResults()
}

// Query implements Conn.
func (l *LocalConn) Query(_ context.Context, q *query.Query) (*result.Results, error) {
	if len(q.Sources) > 0 && l.res != nil {
		return l.res.Search(l.src.ID(), q)
	}
	return l.src.Search(q)
}
