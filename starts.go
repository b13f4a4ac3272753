// Package starts is a complete Go implementation of STARTS 1.0, the
// Stanford Protocol Proposal for Internet Retrieval and Search (Gravano,
// Chang, García-Molina, Paepcke; SIGMOD 1997): the query language, the
// SOIF-encoded query/result/metadata objects, search engines with
// heterogeneous capability profiles, sources and resources that export
// metadata and content summaries, an HTTP transport, and a metasearcher
// that performs the paper's three tasks — choosing the best sources for a
// query, evaluating the query at those sources, and merging the results.
//
// This package is the public facade; it re-exports the user-facing types
// of the internal packages so applications need a single import:
//
//	eng, _ := starts.NewVectorEngine()
//	src, _ := starts.NewSource("Source-1", eng)
//	src.Add(&starts.Document{Linkage: "http://...", Title: "...", Body: "..."})
//
//	ms := starts.NewMetasearcher(starts.MetasearcherOptions{})
//	ms.Add(starts.NewLocalConn(src, nil))
//	q := starts.NewQuery()
//	q.Ranking, _ = starts.ParseRanking(`list((body-of-text "distributed"))`)
//	answer, _ := ms.Search(ctx, q)
package starts

import (
	"net/http"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/dispatch"
	"starts/internal/engine"
	"starts/internal/faulty"
	"starts/internal/gloss"
	"starts/internal/index"
	"starts/internal/merge"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/peer"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/resilient"
	"starts/internal/result"
	"starts/internal/server"
	"starts/internal/source"
)

// Version is the protocol version implemented by this module.
const Version = query.Version

// Query language.
type (
	// Query is a complete STARTS query (Section 4.1).
	Query = query.Query
	// Expr is a filter- or ranking-expression tree.
	Expr = query.Expr
	// Term is an atomic query term.
	Term = query.Term
	// SortKey orders query results.
	SortKey = query.SortKey
)

// NewQuery returns a query with the specification defaults.
func NewQuery() *Query { return query.New() }

// ParseFilter parses a Basic-1 filter expression.
func ParseFilter(src string) (Expr, error) { return query.ParseFilter(src) }

// ParseRanking parses a Basic-1 ranking expression.
func ParseRanking(src string) (Expr, error) { return query.ParseRanking(src) }

// Documents, engines and sources.
type (
	// Document is an indexable flat text document.
	Document = index.Document
	// Engine executes queries under a capability profile.
	Engine = engine.Engine
	// EngineConfig is an engine's capability profile.
	EngineConfig = engine.Config
	// Source is a document collection with its engine and exported
	// metadata.
	Source = source.Source
	// Resource groups sources behind one contact point.
	Resource = source.Resource
)

// NewVectorEngine returns a full-featured vector-space engine (filter and
// ranking expressions, tf·idf scoring).
func NewVectorEngine() (*Engine, error) { return engine.New(engine.NewVectorConfig()) }

// NewBooleanEngine returns a Glimpse-like Boolean engine (filter
// expressions only).
func NewBooleanEngine() (*Engine, error) { return engine.New(engine.NewBooleanConfig()) }

// NewEngine returns an engine with a custom capability profile.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// NewSource returns a source over an engine.
func NewSource(id string, eng *Engine) (*Source, error) { return source.New(id, eng) }

// NewResource returns an empty resource.
func NewResource() *Resource { return source.NewResource() }

// Results and metadata objects.
type (
	// Results is a query result: header plus documents.
	Results = result.Results
	// ResultDocument is one query-result document with its TermStats.
	ResultDocument = result.Document
	// TermStat carries per-term statistics for rank merging.
	TermStat = result.TermStat
	// SourceMeta is a source's MBasic-1 metadata.
	SourceMeta = meta.SourceMeta
	// ContentSummary is a source's exported content summary.
	ContentSummary = meta.ContentSummary
)

// Transport.
type (
	// Server serves a resource over HTTP.
	Server = server.Server
	// Client fetches STARTS objects over HTTP.
	Client = client.Client
	// Conn is one queryable source, local or remote.
	Conn = client.Conn
	// BatchConn is a Conn that can evaluate several queries in ONE wire
	// call (QueryBatch), the transport seam behind wire-level
	// multiplexing: the metasearcher's dispatch layer drains a source's
	// queued sub-queries and issues them as a single round trip.
	// NewHTTPConn and NewLocalConn return batch-native conns, every
	// middleware here returns one, and Metasearcher.Add adapts any other
	// Conn by running a batch's items concurrently.
	BatchConn = client.BatchConn
)

// ServerOption configures a Server.
type ServerOption = server.Option

// WithServerMetrics records a server's route metrics into an externally
// owned registry, merging several components onto one /metrics.
func WithServerMetrics(reg *obs.Registry) ServerOption { return server.WithMetrics(reg) }

// WithServerTraceCapacity sizes the server's /debug/last-traces ring.
func WithServerTraceCapacity(n int) ServerOption { return server.WithTraceCapacity(n) }

// WithServerMaxInflight bounds concurrent query evaluations; excess
// requests wait up to queueTimeout for a slot and are then shed with a
// fast 503 + Retry-After. n <= 0 leaves queries unbounded.
func WithServerMaxInflight(n int, queueTimeout time.Duration) ServerOption {
	return server.WithMaxInflight(n, queueTimeout)
}

// NewServer returns an http.Handler serving the resource's sources; the
// metadata it serves points back at baseURL. The server exposes its own
// GET /metrics and GET /debug/last-traces endpoints.
func NewServer(res *Resource, baseURL string, opts ...ServerOption) *Server {
	return server.New(res, baseURL, opts...)
}

// NewClient returns an HTTP STARTS client; nil uses a default HTTP client.
func NewClient(hc *http.Client) *Client { return client.NewClient(hc) }

// StreamURL derives a source's chunked (?stream=1) query endpoint from
// its query URL, for Client.QueryStream.
func StreamURL(queryURL string) string { return client.StreamURL(queryURL) }

// NewLocalConn wraps an in-process source as a Conn; res may be nil.
func NewLocalConn(src *Source, res *Resource) Conn { return client.NewLocalConn(src, res) }

// NewHTTPConn wraps a remote source as a Conn given its metadata URL.
func NewHTTPConn(c *Client, sourceID, metadataURL string) Conn {
	return client.NewHTTPConn(c, sourceID, metadataURL)
}

// Metasearch.
type (
	// Metasearcher performs the three metasearch tasks over registered
	// sources.
	Metasearcher = core.Metasearcher
	// MetasearcherOptions configure a metasearcher.
	MetasearcherOptions = core.Options
	// Answer is a merged metasearch result.
	Answer = core.Answer
	// SourceStats is a source's observed past performance.
	SourceStats = core.SourceStats
	// AdaptiveSelector discounts estimated goodness by past performance
	// (latency, failures), SavvySearch-style.
	AdaptiveSelector = core.AdaptiveSelector
	// Broker exposes a metasearcher as a source connection, enabling
	// broker hierarchies (cascading metasearch).
	Broker = core.Broker
	// Selector ranks sources by estimated goodness (source selection).
	Selector = gloss.Selector
	// MergeStrategy fuses per-source ranks (rank merging).
	MergeStrategy = merge.Strategy
	// StreamEvent is one incremental delivery from Metasearcher.SearchStream:
	// newly rank-stable documents, a completed source's outcome, or the
	// terminal event carrying the complete answer.
	StreamEvent = core.StreamEvent
	// StreamSink receives StreamEvents, serially, as ranks become certain.
	StreamSink = core.StreamSink
	// StreamItem is one @SQStreamItem frame of a chunked wire answer.
	StreamItem = result.StreamItem
	// StreamError is a query failure reported in-band, after the HTTP
	// preamble was already committed.
	StreamError = result.StreamError
	// StreamConn is a source connection that can deliver a query's answer
	// incrementally (HTTP conns against ?stream=1 endpoints, and brokers).
	StreamConn = client.StreamConn
)

// NewMetasearcher returns a metasearcher; zero options give vGlOSS Sum(0)
// selection and TermStats merging.
func NewMetasearcher(opts MetasearcherOptions) *Metasearcher { return core.New(opts) }

// Per-query search options. These override one Search call's
// configuration without touching the metasearcher's shared Options, so
// concurrent callers can each pick their own budget, merger or source
// cap:
//
//	ans, _ := ms.Search(ctx, q,
//		starts.WithBudget(2*time.Second),
//		starts.WithMerger(starts.MergeScaled),
//		starts.WithMaxSources(3))
type (
	// SearchOption overrides one search's configuration.
	SearchOption = core.SearchOption
	// SourceStatEntry is one source's row in a Metasearcher stats
	// snapshot.
	SourceStatEntry = core.SourceStatEntry
)

// WithSelector ranks sources with s for this search only.
func WithSelector(s Selector) SearchOption { return core.WithSelector(s) }

// WithMerger fuses this search's per-source ranks with s.
func WithMerger(s MergeStrategy) SearchOption { return core.WithMerger(s) }

// WithMaxSources bounds how many sources this search contacts (0 = all
// promising ones).
func WithMaxSources(n int) SearchOption { return core.WithMaxSources(n) }

// WithBudget bounds this whole search — harvesting plus fan-out — by d.
func WithBudget(d time.Duration) SearchOption { return core.WithBudget(d) }

// WithTimeout sets this search's per-source deadline.
func WithTimeout(d time.Duration) SearchOption { return core.WithTimeout(d) }

// WithPostFilter toggles verification mode for this search.
func WithPostFilter(on bool) SearchOption { return core.WithPostFilter(on) }

// WithTrace records this search's span tree into t (its zero value is
// fine; Search re-begins it):
//
//	var tr starts.Trace
//	ans, _ := ms.Search(ctx, q, starts.WithTrace(&tr))
//	fmt.Print(tr.Snapshot().Tree())
func WithTrace(t *Trace) SearchOption { return core.WithTrace(t) }

// WithCache serves this search through c, overriding (or supplying) the
// metasearcher's MetasearcherOptions.Cache for this call only.
func WithCache(c *QueryCache) SearchOption { return core.WithCache(c) }

// WithNoCache bypasses the query-result cache for this search.
func WithNoCache() SearchOption { return core.WithNoCache() }

// Query-result caching and load shedding.
type (
	// QueryCache is a sharded LRU+TTL query-result cache with
	// singleflight coalescing, stale-while-revalidate and load shedding.
	// Plug it into MetasearcherOptions.Cache (merged answers) or wrap
	// individual conns with CacheMiddleware (per-source results).
	QueryCache = qcache.Cache
	// QueryCacheConfig configures a QueryCache; its zero value is usable.
	QueryCacheConfig = qcache.Config
	// CacheStore is a QueryCache's pluggable storage backend; implement
	// it to back the cache with anything from a plain map to a
	// distributed store. Coalescing and the admission gate stay in front
	// of any store.
	CacheStore = qcache.Store
	// CacheEntry is one stored value with its freshness bounds.
	CacheEntry = qcache.Entry
	// WarmEntry is one recorded workload item for cache warm starts.
	WarmEntry = qcache.WarmEntry
	// WarmStats reports one warm-start replay.
	WarmStats = qcache.WarmStats
)

// ErrShed is returned (wrapped) when the cache's admission gate sheds a
// query under overload; detect it with errors.Is.
var ErrShed = qcache.ErrShed

// Distributed peer cache tier: a CacheStore whose key space is
// partitioned across a fleet of metasearcher peers by a consistent-hash
// ring. Keys owned by a remote peer travel over keep-alive HTTP to that
// peer's /peer/cache endpoints (mounted with WithServerPeerCache or
// NewPeerHandler); everything else — and every operation whose owner is
// unreachable — lands in the node's local LRU, so a dead peer degrades
// to a local miss behind a bounded timeout and per-peer breaker, never a
// stall. Plug a PeerStore into QueryCacheConfig.Store and the fleet
// shares one logical result cache:
//
//	ps := starts.NewPeerStore(starts.PeerStoreConfig{
//		Self:  "http://10.0.0.1:8080",
//		Peers: []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080"},
//		Codec: starts.PeerResultsCodec,
//	})
//	cache := starts.NewQueryCache(starts.QueryCacheConfig{Store: ps})
type (
	// PeerStore is the ring-sharded CacheStore over the peer fleet.
	PeerStore = peer.Store
	// PeerStoreConfig configures a PeerStore (self URL, peer URLs, codec,
	// timeout, breaker thresholds).
	PeerStoreConfig = peer.Config
	// PeerCodec serializes cached values for the peer wire.
	PeerCodec = peer.Codec
	// PeerStatus is one ring member's health row, as served on GET
	// /debug/peers.
	PeerStatus = peer.Status
	// PeerRing is the consistent-hash ring mapping keys to owners.
	PeerRing = peer.Ring
)

// PeerResultsCodec carries *Results values (per-source cached answers)
// over the peer wire as SOIF, the same encoding they travel the STARTS
// protocol in.
var PeerResultsCodec PeerCodec = peer.ResultsCodec{}

// NewPeerStore returns a peer-sharded cache store; a config with no
// Peers (or only Self) keeps every key local.
func NewPeerStore(cfg PeerStoreConfig) *PeerStore { return peer.New(cfg) }

// NewPeerRing builds a consistent-hash ring directly, for routing
// decisions outside the store (replicas <= 0 takes the default 64).
func NewPeerRing(peers []string, replicas int) *PeerRing { return peer.NewRing(peers, replicas) }

// NewPeerHandler serves a store's /peer/cache/{key} and /peer/len
// endpoints for mounting on a custom mux; WithServerPeerCache does this
// (plus /debug/peers) on a Server.
func NewPeerHandler(s *PeerStore) http.Handler { return peer.NewHandler(s) }

// WithServerPeerCache mounts ps's peer-cache endpoints on the server:
// GET/PUT/DELETE /peer/cache/{key}, GET /peer/len and the GET
// /debug/peers health view.
func WithServerPeerCache(ps *PeerStore) ServerOption { return server.WithPeerCache(ps) }

// NewConnServer serves any Conn — not only an in-process source — as a
// one-source STARTS resource at baseURL, through the same Server and
// ServerOptions as NewServer. It is the serving half of a ZBroker-style
// hierarchy: wrap a regional Metasearcher in its Broker and serve that,
//
//	broker, _ := regional.NewBroker("region-west")
//	http.ListenAndServe(addr, starts.NewConnServer(broker, baseURL))
//
// and a front metasearcher discovers it like any leaf source and
// GlOSS-routes queries to the regions whose summaries match.
func NewConnServer(conn Conn, baseURL string, opts ...ServerOption) *Server {
	return server.NewConns([]Conn{conn}, baseURL, opts...)
}

// Debug routes for Metasearcher.DebugHandler.
type (
	// DebugRoute is one extra route mounted on a metasearcher's debug
	// mux, e.g. {"GET /debug/peers", peerStore.DebugHandler()}.
	DebugRoute = core.DebugRoute
)

// DebugJSON adapts a snapshot function into an indented-JSON debug
// handler, the shape DebugHandler's own routes use.
func DebugJSON(snapshot func() any) http.Handler { return core.DebugJSON(snapshot) }

// Per-source dispatching.
type (
	// Dispatcher owns a bounded work queue and worker pool per source
	// and coalesces identical in-flight calls across searches. Every
	// Metasearcher builds one internally (sized by
	// MetasearcherOptions.SourceConcurrency/QueueDepth) and it is the
	// only one: reach it through Metasearcher.Dispatcher.
	Dispatcher = dispatch.Dispatcher
	// DispatchLimits sizes one source's queue: worker count and queue
	// depth. Queues are sized on first contact.
	DispatchLimits = dispatch.Limits
	// DispatchQueueStat is one source's dispatch counters, as reported
	// by Metasearcher.DispatchStats and GET /debug/dispatch.
	DispatchQueueStat = dispatch.QueueStat
)

// Dispatch errors, for errors.Is against per-source outcomes: a full
// queue sheds instead of blocking, an open breaker refuses instead of
// timing out, and a deadline too tight for the source's observed
// service time is refused before queueing.
var (
	ErrQueueFull        = dispatch.ErrQueueFull
	ErrDispatchRefused  = dispatch.ErrRefused
	ErrDispatcherClosed = dispatch.ErrClosed
	ErrDispatchDeadline = dispatch.ErrDeadline
)

// NewQueryCache returns a query-result cache (zero config takes the
// defaults: 4096 entries, 16 shards, one-minute TTL, stale window of
// four TTLs, unbounded admission).
func NewQueryCache(cfg QueryCacheConfig) *QueryCache { return qcache.New(cfg) }

// NewLRUCacheStore returns the default sharded LRU store explicitly, for
// composing a QueryCacheConfig.Store (e.g. wrapping it with logging).
func NewLRUCacheStore(maxEntries, shards int, reg *MetricsRegistry) CacheStore {
	return qcache.NewLRUStore(maxEntries, shards, reg)
}

// SaveWorkloadFile persists a recorded query workload
// (Metasearcher.Workload) as JSON lines for replay after a restart.
func SaveWorkloadFile(path string, entries []WarmEntry) error {
	return qcache.SaveWorkloadFile(path, entries)
}

// LoadWorkloadFile reads a workload saved by SaveWorkloadFile, for
// replaying with Metasearcher.Warm.
func LoadWorkloadFile(path string) ([]WarmEntry, error) {
	return qcache.LoadWorkloadFile(path)
}

// Observability.
type (
	// Trace is one operation's tree of timed spans; its zero value is
	// ready to use with WithTrace.
	Trace = obs.Trace
	// Span is one timed step inside a Trace.
	Span = obs.Span
	// TraceInfo is an immutable snapshot of a finished (or in-flight)
	// Trace; its Tree method renders the span tree.
	TraceInfo = obs.TraceInfo
	// SpanInfo is one span in a TraceInfo.
	SpanInfo = obs.SpanInfo
	// MetricsRegistry holds named counters, gauges and latency
	// histograms; Render emits them in Prometheus text format.
	MetricsRegistry = obs.Registry
	// TraceRing keeps the last N traces for debugging endpoints.
	TraceRing = obs.TraceRing
)

// NewMetricsRegistry returns an empty metrics registry, shareable across
// a metasearcher (MetasearcherOptions.Metrics), servers and instrumented
// conns.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTraceRing returns a ring buffer holding the last n traces.
func NewTraceRing(n int) *TraceRing { return obs.NewTraceRing(n) }

// MetricLabel encodes labels into a metric name: MetricLabel("m", "k",
// "v") is `m{k="v"}`.
func MetricLabel(name string, kv ...string) string { return obs.L(name, kv...) }

// WrapConn instruments a Conn: every call is timed into a child span of
// the context's current span and counted into reg.
func WrapConn(c Conn, reg *MetricsRegistry) Conn { return obs.WrapConn(c, reg) }

// Resilience.
type (
	// RetryPolicy configures exponential backoff with jitter for a
	// retrying Conn.
	RetryPolicy = resilient.RetryPolicy
	// RetryBudget caps retry amplification across many conns.
	RetryBudget = resilient.Budget
	// Breaker is a per-source circuit breaker, usable as
	// MetasearcherOptions.Breaker.
	Breaker = resilient.Breaker
	// BreakerConfig configures a Breaker.
	BreakerConfig = resilient.BreakerConfig
	// Degradation reports how an answer fell short of a clean fan-out.
	Degradation = core.Degradation
	// FaultConfig configures deterministic fault injection, for tests
	// and soak runs.
	FaultConfig = faulty.Config
	// FaultyConn is a fault-injecting Conn wrapper; SetFailing scripts
	// outages.
	FaultyConn = faulty.Conn
)

// NewRetryConn wraps a Conn with retries; budget may be nil or shared.
// Failed-but-retryable items of a batch are re-sent as a smaller batch
// on the next attempt.
func NewRetryConn(c Conn, p RetryPolicy, budget *RetryBudget) Conn {
	return resilient.Wrap(c, p, budget)
}

// NewBreaker returns a circuit breaker; zero config takes the defaults.
func NewBreaker(cfg BreakerConfig) *Breaker { return resilient.NewBreaker(cfg) }

// NewFaultyConn wraps a Conn with deterministic, seedable fault
// injection. The injector gates once per wire call, so an injected fault
// fails a whole batch like a broken wire would.
func NewFaultyConn(c Conn, cfg FaultConfig) *FaultyConn { return faulty.WrapConn(c, cfg) }

// NewFaultMiddleware wraps an HTTP handler (e.g. a Server) with fault
// injection.
func NewFaultMiddleware(cfg FaultConfig, h http.Handler) http.Handler {
	return faulty.Middleware(cfg, h)
}

// ConnMiddleware decorates a Conn with one cross-cutting concern —
// retries, fault injection, instrumentation.
type ConnMiddleware = client.Middleware

// ChainConn wraps conn with the given middlewares; the first ends up
// innermost (closest to the source), the last outermost:
//
//	conn = starts.ChainConn(conn,
//		starts.FaultyMiddleware(faults), // injected at the source
//		starts.ObserveMiddleware(reg),   // times every attempt
//		starts.RetryMiddleware(policy, budget)) // retries observed faults
//
// Nil middlewares are skipped. Every middleware this package exports
// returns a BatchConn whatever it wraps (see BatchConn), so order is the
// only thing a chain has to get right.
func ChainConn(conn Conn, mw ...ConnMiddleware) Conn { return client.Chain(conn, mw...) }

// RetryMiddleware is NewRetryConn as a ConnMiddleware.
func RetryMiddleware(p RetryPolicy, budget *RetryBudget) ConnMiddleware {
	return func(c Conn) Conn { return resilient.Wrap(c, p, budget) }
}

// FaultyMiddleware is NewFaultyConn as a ConnMiddleware.
func FaultyMiddleware(cfg FaultConfig) ConnMiddleware {
	return func(c Conn) Conn { return faulty.WrapConn(c, cfg) }
}

// ObserveMiddleware is WrapConn as a ConnMiddleware.
func ObserveMiddleware(reg *MetricsRegistry) ConnMiddleware {
	return func(c Conn) Conn { return obs.WrapConn(c, reg) }
}

// CacheMiddleware caches a conn's per-source query results in cache.
// Compose it so the cache sits OUTSIDE the retrier (retries re-run the
// source, never the cache) and INSIDE the observer (hits still trace and
// count):
//
//	conn = starts.ChainConn(conn,
//		starts.RetryMiddleware(policy, budget),
//		starts.CacheMiddleware(cache),
//		starts.ObserveMiddleware(reg))
//
// That is the recommended chain; the metasearcher's own dispatcher sits
// on top of it, queueing and coalescing per source before any of it
// runs.
func CacheMiddleware(cache *QueryCache) ConnMiddleware {
	return func(c Conn) Conn { return qcache.WrapConn(c, cache) }
}

// Selectors.
var (
	// SelectVSum is the vGlOSS Sum(0) selector (default).
	SelectVSum Selector = gloss.VSum{}
	// SelectVMax is the vGlOSS Max(0) selector.
	SelectVMax Selector = gloss.VMax{}
	// SelectBGloss is the Boolean bGlOSS selector.
	SelectBGloss Selector = gloss.BGloss{}
)

// Merge strategies.
var (
	// MergeRawScore compares raw scores across sources (known broken;
	// kept as the baseline).
	MergeRawScore MergeStrategy = merge.RawScore{}
	// MergeScaled normalizes scores via each source's ScoreRange.
	MergeScaled MergeStrategy = merge.Scaled{}
	// MergeRoundRobin interleaves per-source ranks.
	MergeRoundRobin MergeStrategy = merge.RoundRobin{}
	// MergeTermStats re-ranks from returned term statistics (default).
	MergeTermStats MergeStrategy = merge.TermStats{}
)
