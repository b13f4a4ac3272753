// Package core implements the metasearcher — the client the STARTS
// protocol exists to serve. A search runs the paper's metasearch tasks as
// five steps, each a function that returns a value (steps.go): harvest
// reads every source's metadata and content summary into a roster,
// re-harvesting those past their DateExpires; choose ranks the harvested
// sources for the query with a GlOSS-style selector into a plan; translate
// rewrites the query for each planned source from its harvested metadata;
// fanOut evaluates the sub-queries at the chosen sources concurrently; and
// merge fuses the returned ranks into one answer, optionally verifying
// dropped query parts client-side. Search, SearchStream, the query cache's
// fill and the Broker compose them.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"starts/internal/client"
	"starts/internal/dispatch"
	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/translate"
)

// Options configure a metasearcher. They are fixed at New: a search is a
// function of its query, the roster and these options, and a caller that
// needs another budget, merger or source cap builds another metasearcher.
type Options struct {
	// Selector ranks sources per query; default vGlOSS Sum(0).
	Selector gloss.Selector
	// Merger fuses per-source ranks; default TermStats re-ranking.
	Merger merge.Strategy
	// MaxSources bounds how many sources a query contacts; 0 contacts
	// every source with non-zero estimated goodness.
	MaxSources int
	// Timeout is the per-source query deadline; default 15s.
	Timeout time.Duration
	// Budget bounds one whole Search call — harvesting plus fan-out —
	// independently of the per-source Timeout; 0 sets no overall
	// deadline. With a budget, a pathological fleet degrades the answer
	// instead of stacking per-source timeouts.
	Budget time.Duration
	// Breaker, when set, is consulted before fan-out: sources it refuses
	// are skipped (reported in Answer.Degraded) and every query outcome
	// is fed back to it. resilient.NewBreaker provides one.
	Breaker BreakerGate
	// PostFilter enables verification mode: results are re-checked
	// against query parts a source could not evaluate.
	PostFilter bool
	// Metrics receives the metasearcher's counters, gauges and latency
	// histograms; nil allocates a private registry, so instrumentation is
	// always on (retrieve it with Metasearcher.Metrics). Share one
	// registry across components to get a single /metrics view.
	Metrics *obs.Registry
	// Cache, when set, serves repeated identical queries from a shared
	// query-result cache: concurrent identical queries coalesce into one
	// fan-out, expired entries are served stale while a background
	// refresh runs (reported via Answer.Degraded.StaleAnswer), and under
	// overload the cache's admission gate sheds queries with a typed
	// qcache.ErrShed instead of queueing without bound. qcache.New
	// provides one; WithNoCache bypasses it per query. Cached answers
	// are shared between callers — treat them as read-only.
	Cache *qcache.Cache
	// SourceConcurrency bounds how many wire calls one source serves at
	// once: every per-source call (queries, harvests, warm replays, SWR
	// refreshes) flows through the metasearcher's dispatch layer, where
	// at most this many worker goroutines serve a source's queue (they
	// start on demand; an idle source holds none), each carrying one
	// sub-query. 0 takes dispatch.DefaultConcurrency (16). A source's
	// queue is sized on its first contact.
	SourceConcurrency int
	// QueueDepth bounds how many batches may wait per source before
	// submissions are shed with a typed dispatch.ErrQueueFull (surfaced
	// in the per-source outcome). 0 takes dispatch.DefaultQueueDepth.
	QueueDepth int
	// Now overrides the clock, for cache-expiry tests.
	Now func() time.Time
}

// Metasearcher provides a unified query interface over many STARTS
// sources.
type Metasearcher struct {
	opts Options // fixed at New, so read without the lock

	// The registered fleet. Add publishes a new members slice (and, for a
	// new id, a new slot map and scope) instead of editing the old ones,
	// so a search may keep the ones it read after dropping the lock;
	// entries is edited in place, by every harvest, and copied by readers.
	mu      sync.RWMutex
	members []*member      // registration order
	slot    map[string]int // id -> index in members and entries
	entries []*entry       // each member's last harvest; nil before the first
	scope   string         // cache scope of every search: the options and the source ids

	workload   *qcache.Recorder
	dispatcher *dispatch.Dispatcher
}

// BreakerGate admits or refuses traffic to sources. It is satisfied by
// resilient.Breaker; core defines only the interface so the dependency
// points outward. Two optional methods are discovered by assertion:
// Open(id) bool becomes the dispatcher's fast-drain Refuse hook, and
// Release(id) is called for an admitted call that ends without a wire
// outcome (never sent, shed at the dispatch layer, coalesced onto another
// search's batch), so a half-open probe slot it holds is freed.
type BreakerGate interface {
	// Allow reports whether the source may be contacted now.
	Allow(id string) bool
	// Record feeds back a contact's outcome (nil err = success).
	Record(id string, err error)
}

// member is one registered source: its connection, and everything about it
// that is fixed at Add — the span, dispatch-key and metric names that carry
// its id are built once, not once per query.
type member struct {
	id   string
	conn client.Conn

	translateSpan, querySpan string
	dispatchScope            string // of the source's batch keys
	querySeconds, errsTotal  string // metric names
}

func newMember(c client.Conn) *member {
	id := c.SourceID()
	return &member{
		id: id, conn: c,
		translateSpan: "translate " + id, querySpan: "query " + id, dispatchScope: "dispatch/" + id,
		querySeconds: obs.L("starts_source_query_seconds", "source", id),
		errsTotal:    obs.L("starts_source_query_errors_total", "source", id),
	}
}

// entry is one source's harvested state. Entries are immutable once
// published in Metasearcher.entries — refreshes (including stale-if-error
// marking) swap in a new entry, so readers may use one after dropping
// the lock.
type entry struct {
	meta    *meta.SourceMeta
	summary *meta.ContentSummary
	// stale marks an entry served past its DateExpires because a refresh
	// failed (stale-if-error): better an aging summary than no source.
	stale bool
}

// New returns a metasearcher with the given options.
func New(opts Options) *Metasearcher {
	if opts.Selector == nil {
		opts.Selector = gloss.VSum{}
	}
	if opts.Merger == nil {
		opts.Merger = merge.TermStats{}
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 15 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	// Breakers that can report their open state (resilient.Breaker can)
	// become the dispatcher's Refuse hook: batches queued for an open
	// source resolve immediately with dispatch.ErrRefused instead of
	// timing out one waiter at a time. The check is read-only, so it
	// cannot consume a half-open probe slot.
	var refuse func(string) bool
	if op, ok := opts.Breaker.(interface{ Open(id string) bool }); ok {
		refuse = op.Open
	}
	m := &Metasearcher{
		opts:     opts,
		scope:    searchScope(opts, nil),
		workload: qcache.NewRecorder(0),
		dispatcher: dispatch.New(dispatch.Config{
			Limits:  dispatch.Limits{Concurrency: opts.SourceConcurrency, QueueDepth: opts.QueueDepth},
			Refuse:  refuse,
			Metrics: opts.Metrics,
			Now:     opts.Now,
		}),
	}
	return m
}

// Dispatcher returns the per-source dispatch layer all of this
// metasearcher's source traffic flows through.
func (m *Metasearcher) Dispatcher() *dispatch.Dispatcher { return m.dispatcher }

// DispatchStats reports every source queue's dispatch state and
// counters, sorted by source ID.
func (m *Metasearcher) DispatchStats() []dispatch.QueueStat { return m.dispatcher.Snapshot() }

// Close stops the dispatch layer: queued work drains, new searches fail
// with dispatch.ErrClosed.
func (m *Metasearcher) Close() { m.dispatcher.Close() }

// Metrics returns the registry this metasearcher records into.
func (m *Metasearcher) Metrics() *obs.Registry { return m.opts.Metrics }

// Add registers a source connection. Re-adding an ID replaces the
// connection and invalidates its harvested state.
func (m *Metasearcher) Add(c client.Conn) {
	mem := newMember(c)
	m.mu.Lock()
	defer m.mu.Unlock()
	members := append(make([]*member, 0, len(m.members)+1), m.members...)
	if i, known := m.slot[mem.id]; known {
		members[i], m.entries[i] = mem, nil
	} else {
		slot := make(map[string]int, len(members)+1)
		for id, i := range m.slot {
			slot[id] = i
		}
		slot[mem.id] = len(members)
		members, m.entries, m.slot = append(members, mem), append(m.entries, nil), slot
		m.scope = searchScope(m.opts, members)
	}
	m.members = members
	m.opts.Metrics.Gauge("starts_sources_registered").Set(int64(len(members)))
}

// SourceIDs lists registered sources in registration order.
func (m *Metasearcher) SourceIDs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids := make([]string, len(m.members))
	for i, mem := range m.members {
		ids[i] = mem.id
	}
	return ids
}

// Harvest fetches metadata and content summaries for every source whose
// cached copy is missing or expired (per its DateExpires), concurrently
// through the dispatch layer. Unlike a search, which degrades past a
// source it cannot harvest, it fails when any source does: the error joins
// every failure, sorted by source ID.
func (m *Metasearcher) Harvest(ctx context.Context) error {
	if fleet, _ := m.harvest(ctx); len(fleet.failed) > 0 {
		return joinSorted(fleet.failed)
	}
	return nil
}

// Harvested returns the cached metadata and summary for a source.
func (m *Metasearcher) Harvested(id string) (*meta.SourceMeta, *meta.ContentSummary, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i, ok := m.slot[id]
	if !ok || m.entries[i] == nil {
		return nil, nil, false
	}
	return m.entries[i].meta, m.entries[i].summary, true
}

// SourceOutcome records one contacted source's part of an answer.
type SourceOutcome struct {
	// Sent is the translated query actually submitted.
	Sent *query.Query
	// Report describes what translation dropped.
	Report *translate.Report
	// Results are the source's results (nil on error).
	Results *result.Results
	// Err is the per-source failure, if any; other sources still answer.
	Err error
	// Elapsed is the source's response time.
	Elapsed time.Duration
	// Stale marks an outcome computed from metadata kept past its
	// DateExpires because a refresh failed (stale-if-error).
	Stale bool
}

// Degradation reports how an answer fell short of a clean fan-out, so
// callers can tell a complete answer from a best-effort one. All lists
// are sorted by source ID.
type Degradation struct {
	// Skipped lists sources not contacted because their circuit breaker
	// refused traffic.
	Skipped []string
	// Stale lists contacted sources answered from metadata kept past its
	// DateExpires because a refresh failed.
	Stale []string
	// Failed lists contacted sources whose query failed.
	Failed []string
	// HarvestFailed lists sources with no usable harvest, not even a
	// stale one.
	HarvestFailed []string
	// StaleAnswer marks a whole answer served from the query-result
	// cache past its TTL while a background refresh runs
	// (stale-while-revalidate): every document may be out of date, but
	// the user got an instant answer instead of waiting out a fan-out.
	StaleAnswer bool
}

// Any reports whether the answer degraded at all.
func (d Degradation) Any() bool {
	return d.StaleAnswer ||
		len(d.Skipped)+len(d.Stale)+len(d.Failed)+len(d.HarvestFailed) > 0
}

// String summarizes the degradation for logs and shells.
func (d Degradation) String() string {
	if !d.Any() {
		return "none"
	}
	s := fmt.Sprintf("skipped=%v stale=%v failed=%v harvest-failed=%v",
		d.Skipped, d.Stale, d.Failed, d.HarvestFailed)
	if d.StaleAnswer {
		s += " stale-answer=true"
	}
	return s
}

// Answer is a merged metasearch result.
type Answer struct {
	// Documents is the fused rank, best first.
	Documents []*result.Document
	// Selected lists every source in estimated-goodness order, including
	// those not contacted.
	Selected []gloss.Ranked
	// Contacted lists the sources queried, in selection order.
	Contacted []string
	// PerSource holds each contacted source's outcome.
	PerSource map[string]*SourceOutcome
	// Unverifiable lists dropped terms verification mode could not check.
	Unverifiable []query.Term
	// Degraded reports skipped, stale and failed sources.
	Degraded Degradation
	// Trace is the search's span tree: harvest, select, translate,
	// per-source fan-out and merge, each timed and annotated. It is always
	// set; pass WithTrace to keep the trace when Search fails.
	Trace *obs.Trace
}

// Search runs the full metasearch pipeline for a query. Sources must have
// been harvested first (Search harvests lazily if needed). Per-source
// failures are recorded in the answer, not returned as errors; Search only
// fails if the query is invalid, no source could be contacted, or ctx
// ended first (its error; Options.Budget's deadline still yields a partial
// answer).
//
// The answer depends only on q, the registered sources' harvests and the
// Options fixed at New; SearchOptions pick only where the trace goes and
// how the call meets the query cache. Every search records a
// Trace (five timed stages: harvest, select, translate, per-source
// fan-out, merge — plus a "cache" stage when a query cache is configured)
// into Answer.Trace — or into a caller-owned trace via WithTrace — and
// counts into the metasearcher's metrics registry.
//
// With Options.Cache set (and not bypassed by WithNoCache), repeated
// identical queries are answered from cache: fresh hits skip the fan-out
// entirely, concurrent identical queries coalesce into one fan-out, and
// expired entries are served stale (Answer.Degraded.StaleAnswer) while a
// background refresh runs. Under overload the cache's admission gate
// rejects queries with an error satisfying errors.Is(err, qcache.ErrShed)
// within its queue timeout. Cached answers are shared — treat them as
// read-only.
func (m *Metasearcher) Search(ctx context.Context, q *query.Query, sopts ...SearchOption) (*Answer, error) {
	return m.searchStream(ctx, q, nil, sopts...)
}

// searchStream is the shared body of Search and SearchStream: the batch
// path is simply a stream with no sink (a nil emitter), so both run the
// identical pipeline and middleware chain.
func (m *Metasearcher) searchStream(ctx context.Context, q *query.Query, sink StreamSink, sopts ...SearchOption) (*Answer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	cfg := searchConfig{cache: m.opts.Cache}
	for _, o := range sopts {
		if o != nil {
			o(&cfg)
		}
	}

	var em *emitter
	if sink != nil {
		em = &emitter{sink: sink, start: m.opts.Now(), now: m.opts.Now, metrics: m.opts.Metrics}
		m.opts.Metrics.Counter(obs.MStreamSearches).Inc()
	}

	tr := cfg.trace
	if tr == nil {
		tr = &obs.Trace{}
	}
	// Printed once: the trace title and the warm-start workload both
	// carry the expressions' text.
	filter, ranking := printed(q)
	tr.Begin(describeQuery(filter, ranking))
	defer tr.Finish()
	ctx = obs.WithTrace(obs.WithMetrics(ctx, m.opts.Metrics), tr)
	// The injected clock times the search too, so frozen-clock freshness
	// tests observe deterministic (zero) latencies instead of real ones.
	searchStart := m.opts.Now()
	defer func() {
		m.opts.Metrics.Histogram("starts_search_seconds").Observe(m.opts.Now().Sub(searchStart))
	}()

	var ans *Answer
	var err error
	if cfg.cache != nil && !cfg.noCache {
		ans, err = m.searchCached(ctx, tr, q, filter, ranking, cfg.cache, em)
	} else {
		ans, _, err = m.fill(ctx, q, em)
	}
	if err == nil {
		// A caller that gave up gets its context's error, not an answer
		// cut short by it; the budget's deadline (fill's own) still yields
		// a partial answer.
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	em.finish(ans)
	return ans, nil
}

// fill answers q by the five steps under the trace and registry on ctx,
// and names the answer's cache lifetime (see answerTTL): it is the
// uncached search and the query cache's fill. With a non-nil emitter the
// fan-out's completions also stream through an incremental merger; the
// answer itself comes from the same batch merge either way.
func (m *Metasearcher) fill(ctx context.Context, q *query.Query, em *emitter) (*Answer, time.Duration, error) {
	// The budget bounds the whole call — harvesting included — while
	// Timeout bounds each individual source.
	if m.opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.opts.Budget)
		defer cancel()
	}
	tr := obs.TraceFrom(ctx)
	fleet, err := m.harvest(ctx)
	if err != nil {
		return nil, 0, err
	}
	p, err := m.choose(tr, q, fleet)
	if err != nil {
		return nil, 0, err
	}
	p.translate(tr)
	var onDone func(int, *SourceOutcome)
	if em != nil {
		onDone = em.begin(p, m.opts.Merger)
	}
	return m.merge(tr, p, m.fanOut(ctx, p, onDone))
}

// searchCached is the cache-fronted Search path: it fingerprints the
// query, asks the cache, and only on a miss runs the five steps (as the
// coalescing flight's leader). The entry's lifetime comes from the
// answering sources' own freshness metadata (see answerTTL). The "cache"
// span annotates how the call was served, and every serve is recorded in
// the warm-start workload: its fingerprint plus the Basic-1 text needed
// to replay it (filter and ranking, q's expressions as printed). Queries
// whose expressions do not round-trip through the parser (some
// multi-value ranking terms) are still recorded; Warm skips them with an
// error count instead of failing the replay.
func (m *Metasearcher) searchCached(ctx context.Context, tr *obs.Trace, q *query.Query, filter, ranking string, cache *qcache.Cache, em *emitter) (*Answer, error) {
	csp := tr.StartSpan("cache")
	key := m.CacheKey(q)
	csp.Annotate("key", key)
	m.workload.Record(qcache.WarmEntry{Key: key, Filter: filter, Ranking: ranking, MaxResults: q.MaxResults})
	// The leader's fill runs on this call and streams to its sink. A stale
	// serve's background refresh (which shares the same cache bounds and
	// dispatch layer) outlives this call: it runs under a private trace,
	// since this call's is finished, and streams nowhere. The closure is
	// allocated on every serve, hits included, so it captures no more than
	// the fill needs; the refresh prints the query again.
	v, outcome, err := cache.DoTTL(ctx, key, func(fctx context.Context, refresh bool) (any, time.Duration, error) {
		fem := em
		if refresh {
			ftr := obs.NewTrace("refresh " + describeQuery(printed(q)))
			defer ftr.Finish()
			fctx, fem = obs.WithTrace(obs.WithMetrics(fctx, m.opts.Metrics), ftr), nil
		}
		ans, ttl, err := m.fill(fctx, q, fem)
		if err != nil {
			return nil, 0, err
		}
		return ans, ttl, nil
	})
	csp.Annotate("outcome", outcome.String())
	csp.End(err)
	if err != nil {
		return nil, err
	}
	ans := v.(*Answer)
	if outcome == qcache.Filled {
		return ans, nil // this call's own fill: it carries this call's trace
	}
	// Hit, stale serve or coalesced follower: the shared answer arrived
	// whole, so a stream replays it as one terminal event.
	if em != nil {
		m.opts.Metrics.Counter(obs.MStreamReplays).Inc()
	}
	// The copy shares the documents and outcomes (read-only by convention)
	// but carries this call's trace and marks a stale serve.
	cp := *ans
	cp.Trace, cp.Degraded.StaleAnswer = tr, outcome == qcache.Stale
	return &cp, nil
}

// Workload lists the recently served cache-fronted queries (bounded,
// deduplicated, least recently served first) for persisting across a
// restart and replaying with Warm.
func (m *Metasearcher) Workload() []qcache.WarmEntry { return m.workload.Entries() }

// CacheKey fingerprints q together with everything outside it that
// shapes the answer: the scope Add built from the Options and the
// registered source ids, so re-registering sources implicitly invalidates
// every merged-answer entry. It is the key Search uses, exposed for
// warm-start bookkeeping and debugging.
func (m *Metasearcher) CacheKey(q *query.Query) string {
	m.mu.RLock()
	scope := m.scope
	m.mu.RUnlock()
	return qcache.Keyer{Scope: scope}.Key(q)
}

// Warm replays a recorded workload through the regular cache-fronted
// Search path — every replay passes the cache's singleflight and
// admission gate — so a restarted metasearcher serves its hot queries as
// cache hits from the first request. At most concurrency replays run at
// once (qcache.DefaultWarmConcurrency if <= 0). Entries already fresh in
// the cache are skipped; entries whose recorded query no longer parses
// count as errors and are skipped. It returns an error only when no
// cache is configured.
func (m *Metasearcher) Warm(ctx context.Context, entries []qcache.WarmEntry, concurrency int) (qcache.WarmStats, error) {
	if m.opts.Cache == nil {
		return qcache.WarmStats{}, fmt.Errorf("core: warm start needs Options.Cache")
	}
	stats := m.opts.Cache.Warm(ctx, entries, concurrency, func(rctx context.Context, e qcache.WarmEntry) error {
		q, err := warmQuery(e)
		if err != nil {
			return err
		}
		_, err = m.Search(rctx, q)
		return err
	})
	return stats, nil
}

// warmQuery reconstructs a replayable query from a workload entry's
// recorded Basic-1 text.
func warmQuery(e qcache.WarmEntry) (*query.Query, error) {
	if e.Filter == "" && e.Ranking == "" {
		return nil, fmt.Errorf("core: workload entry %q records no query text", e.Key)
	}
	// Start from the spec defaults, as interactive queries do, so the
	// replay fingerprints identically to the query it is reviving.
	q := query.New()
	if e.MaxResults != 0 {
		q.MaxResults = e.MaxResults
	}
	if e.Filter != "" {
		f, err := query.ParseFilter(e.Filter)
		if err != nil {
			return nil, fmt.Errorf("core: re-parsing workload filter: %w", err)
		}
		q.Filter = f
	}
	if e.Ranking != "" {
		r, err := query.ParseRanking(e.Ranking)
		if err != nil {
			return nil, fmt.Errorf("core: re-parsing workload ranking: %w", err)
		}
		q.Ranking = r
	}
	return q, nil
}

// searchScope names a cache key space: the four options and the source
// ids, sorted, joined by a space — the one byte source.New keeps out of
// an id, so no two fleets print alike.
func searchScope(opts Options, members []*member) string {
	ids := make([]string, len(members))
	for i, mem := range members {
		ids[i] = mem.id
	}
	sort.Strings(ids)
	return "search/" + opts.Selector.Name() + "/" + opts.Merger.Name() + "/" + strconv.Itoa(opts.MaxSources) +
		"/" + strconv.FormatBool(opts.PostFilter) + "/" + strings.Join(ids, " ")
}

// printed renders q's two expressions, "" for one it lacks.
func printed(q *query.Query) (filter, ranking string) {
	if q.Filter != nil {
		filter = q.Filter.String()
	}
	if q.Ranking != nil {
		ranking = q.Ranking.String()
	}
	return filter, ranking
}

// describeQuery renders a query's printed expressions compactly for
// traces and debug pages.
func describeQuery(filter, ranking string) string {
	switch {
	case filter != "" && ranking != "":
		return "filter " + filter + " ranking " + ranking
	case filter != "":
		return "filter " + filter
	case ranking != "":
		return "ranking " + ranking
	}
	return "(empty)"
}

// joinSorted aggregates per-source errors deterministically, sorted by
// source ID.
func joinSorted(errsByID map[string]error) error {
	ids := make([]string, 0, len(errsByID))
	for id := range errsByID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	joined := make([]error, len(ids))
	for i, id := range ids {
		joined[i] = fmt.Errorf("%s: %w", id, errsByID[id])
	}
	return errors.Join(joined...)
}

// note adds one contacted source's outcome to the degradation.
func (d *Degradation) note(id string, oc *SourceOutcome) {
	if oc.Stale {
		d.Stale = append(d.Stale, id)
	}
	if oc.Err != nil {
		d.Failed = append(d.Failed, id)
	}
}

// sort orders every degradation list by source ID.
func (d *Degradation) sort() {
	sort.Strings(d.Skipped)
	sort.Strings(d.Stale)
	sort.Strings(d.Failed)
	sort.Strings(d.HarvestFailed)
}
