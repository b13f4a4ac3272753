package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"starts/internal/attr"
	"starts/internal/client"
	"starts/internal/dispatch"
	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/translate"
)

// errTimeout is why a step stops waiting for a source once
// Options.Timeout has passed: the source was too slow, a failure its
// circuit counts (see call), unlike a caller giving up.
var errTimeout = fmt.Errorf("core: source exceeded the Timeout: %w", context.DeadlineExceeded)

// roster is one search's view of the fleet, read under one lock right
// after its harvest: choose, translate, the merge inputs and the answer's
// lifetime all come from it, so they agree on one harvest of every source
// whatever is re-harvested or registered meanwhile.
type roster struct {
	members []*member
	slot    map[string]int
	entries []*entry         // the search's own copy; nil for a source never harvested
	failed  map[string]error // this harvest's failures, by source id
}

// harvest is the first step, and the one path every harvest takes:
// Harvest, searches and a Broker's exported metadata. It refreshes every
// source whose harvest is missing or past its DateExpires — best effort,
// within one Options.Timeout from the step's start, so an unreachable or
// hung source fails alone instead of blocking the healthy ones — and
// reads the roster. Re-harvesting lazily, before each search selects, is
// how the broker honours a source's DateExpires (§3.4). Each refresh is
// submitted to the source's dispatch queue under the key "harvest", so
// concurrent searches that both find a source stale share one harvest
// instead of racing duplicate fetches at it. It fails only when no
// registered source has a usable entry and the breaker refused none (see
// merge).
func (m *Metasearcher) harvest(ctx context.Context) (roster, error) {
	hsp := obs.TraceFrom(ctx).StartSpan("harvest")
	now := m.opts.Now()
	m.mu.RLock()
	total := len(m.members)
	var stale []string
	for i, mem := range m.members {
		if e := m.entries[i]; e == nil || !e.meta.DateExpires.IsZero() && now.After(e.meta.DateExpires) {
			stale = append(stale, mem.id)
		}
	}
	m.mu.RUnlock()
	m.opts.Metrics.Counter("starts_harvest_cache_hits_total").Add(int64(total - len(stale)))
	m.opts.Metrics.Counter("starts_harvest_cache_misses_total").Add(int64(len(stale)))
	if len(stale) > 0 { // nothing to refresh allocates nothing
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(obs.WithSpan(ctx, hsp), m.opts.Timeout, errTimeout)
		defer cancel()
	}
	tickets, errs := make([]*dispatch.Ticket, len(stale)), make([]error, len(stale))
	for i, id := range stale {
		tickets[i], errs[i] = m.dispatcher.Submit(ctx, id, "harvest", dispatch.Limits{},
			func(tctx context.Context) (any, error) {
				_, err := m.call(tctx, id, func(ctx context.Context) (any, error) {
					return nil, m.harvestOne(ctx, id)
				})
				if err != nil {
					m.keepStale(id)
				}
				return nil, err
			})
	}
	var failed map[string]error
	// All submitted harvests run concurrently on their sources' workers;
	// waiting for them in turn costs only the slowest one.
	for i, t := range tickets {
		if t != nil {
			_, errs[i] = t.Wait(ctx)
		}
		if errs[i] != nil {
			if failed == nil {
				failed = map[string]error{}
			}
			failed[stale[i]] = errs[i]
		}
	}
	hsp.Annotate("errors", strconv.Itoa(len(failed)))
	hsp.End(nil)

	m.mu.RLock()
	fleet := roster{members: m.members, slot: m.slot, entries: append([]*entry(nil), m.entries...), failed: failed}
	m.mu.RUnlock()
	for _, e := range fleet.entries {
		if e != nil {
			return fleet, nil
		}
	}
	if len(failed) == 0 {
		return fleet, errors.New("core: no sources registered")
	}
	for _, err := range failed {
		if errors.Is(err, dispatch.ErrRefused) {
			return fleet, nil
		}
	}
	return fleet, fmt.Errorf("core: no source could be harvested: %w", joinSorted(failed))
}

func (m *Metasearcher) harvestOne(ctx context.Context, id string) (err error) {
	m.mu.RLock()
	i, known := m.slot[id]
	var mem *member
	if known {
		mem = m.members[i]
	}
	m.mu.RUnlock()
	if !known {
		return fmt.Errorf("core: unknown source %q", id)
	}
	sp := obs.SpanFrom(ctx).Child("harvest " + id)
	sp.SetSource(id)
	defer func() { sp.End(err) }()
	ctx = obs.WithSpan(ctx, sp)
	md, err := mem.conn.Metadata(ctx)
	if err != nil {
		return fmt.Errorf("core: harvesting metadata of %s: %w", id, err)
	}
	sum, err := mem.conn.Summary(ctx)
	if err != nil {
		return fmt.Errorf("core: harvesting summary of %s: %w", id, err)
	}
	// What translation asks of the metadata is compiled here, once per
	// harvest, not by the first query to reach the source.
	md.StopList()
	m.mu.Lock()
	m.entries[i] = &entry{meta: md, summary: sum}
	m.mu.Unlock()
	return nil
}

// keepStale implements stale-if-error harvesting: when a refresh fails
// but an old entry exists, the old entry stays in service marked stale.
// Entries are immutable after publish, so marking means swapping in a
// copy.
func (m *Metasearcher) keepStale(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.slot[id] // of a registered source: harvest read it off the members
	if e := m.entries[i]; e != nil && !e.stale {
		stale := *e
		stale.stale = true
		m.entries[i] = &stale
	}
}

// plan is what choose decided for one search from one roster, before
// anything is sent: the selector's ranking, the sources to contact with
// their harvests (translate adds their sub-queries), and the outcomes
// already known — failed or refused harvests. fanOut sends it; merge
// reads it back into the answer.
type plan struct {
	q        *query.Query
	ranked   []gloss.Ranked            // every harvested source, best first
	ids      []string                  // the sources to contact, in selection order
	sources  []sourcePlan              // sources[i] is ids[i]'s
	known    map[string]*SourceOutcome // failed or refused harvests
	degraded Degradation               // their HarvestFailed and Skipped
}

// sourcePlan is one contacted source's part of the plan: the member, its
// harvested state and translated query — or the reason it cannot be
// queried at all — and, once it answered, the dropped terms verification
// mode could not check.
type sourcePlan struct {
	mem        *member
	entry      *entry
	sent       *query.Query
	report     *translate.Report
	err        error // lookup or translation failure; skips the network call
	unverified []query.Term
}

// choose is the selection step (§3.1): the selector ranks the harvested
// sources for q and the promising ones are picked.
func (m *Metasearcher) choose(tr *obs.Trace, q *query.Query, fleet roster) (*plan, error) {
	infos := make([]gloss.SourceInfo, 0, len(fleet.members))
	for i, e := range fleet.entries {
		if e != nil { // else never harvested; its error is in fleet.failed
			infos = append(infos, gloss.SourceInfo{ID: fleet.members[i].id, Summary: e.summary, Meta: e.meta})
		}
	}
	ssp := tr.StartSpan("select")
	ranked := m.opts.Selector.Rank(q, infos)
	picked := pick(ranked, m.opts.MaxSources)
	ssp.Annotate("selector", m.opts.Selector.Name())
	ssp.Annotate("candidates", strconv.Itoa(len(ranked)))
	ssp.Annotate("picked", strconv.Itoa(len(picked)))
	ssp.End(nil)
	p := &plan{q: q, ranked: ranked, ids: picked}
	for id, err := range fleet.failed {
		p.know(id, fmt.Errorf("core: harvesting %s: %w", id, err))
		switch i, ok := fleet.slot[id]; {
		case ok && fleet.entries[i] != nil && fleet.entries[i].stale: // served stale
		case errors.Is(err, dispatch.ErrRefused):
			p.degraded.Skipped = append(p.degraded.Skipped, id)
		default:
			p.degraded.HarvestFailed = append(p.degraded.HarvestFailed, id)
		}
	}
	if len(picked) == 0 && len(p.degraded.Skipped) == 0 { // else degraded and empty, see merge
		return nil, fmt.Errorf("core: no promising sources for query (of %d registered)", len(infos))
	}
	p.sources = make([]sourcePlan, len(p.ids))
	for n, id := range p.ids {
		if i, ok := fleet.slot[id]; ok {
			p.sources[n].mem, p.sources[n].entry = fleet.members[i], fleet.entries[i]
		}
	}
	return p, nil
}

// know records an outcome settled before the fan-out.
func (p *plan) know(id string, err error) {
	if p.known == nil {
		p.known = map[string]*SourceOutcome{}
	}
	p.known[id] = &SourceOutcome{Err: err}
}

// pick keeps the sources worth contacting: positive estimated goodness,
// capped at maxSources. If the selector assigns no positive goodness at
// all (e.g. the random baseline), every source is eligible.
func pick(ranked []gloss.Ranked, maxSources int) []string {
	anyPositive := false
	for _, r := range ranked {
		if r.Goodness > 0 {
			anyPositive = true
			break
		}
	}
	var ids []string
	for _, r := range ranked {
		if anyPositive && r.Goodness <= 0 {
			continue
		}
		ids = append(ids, r.ID)
		if maxSources > 0 && len(ids) >= maxSources {
			break
		}
	}
	return ids
}

// translate is the translation step (§3.2): each planned source gets the
// query rewritten against its harvested metadata, under its own span, so
// a trace shows exactly what each source was asked and what was dropped.
// In verification mode a sub-query also asks for the fields its dropped
// terms are checked against (see askToVerify).
func (p *plan) translate(tr *obs.Trace, verify bool) {
	tsp := tr.StartSpan("translate")
	defer tsp.End(nil)
	for n, id := range p.ids {
		s := &p.sources[n]
		name := "translate "
		if s.mem != nil {
			name = s.mem.translateSpan
		} else {
			name += id // a selector named a source nobody registered
		}
		sp := tsp.Child(name)
		sp.SetSource(id)
		if s.entry == nil {
			s.err = fmt.Errorf("core: source %q not harvested", id)
			sp.End(s.err)
			continue
		}
		s.sent, s.report = translate.ForSource(p.q, s.entry.meta)
		if s.sent.Filter == nil && s.sent.Ranking == nil {
			s.err = fmt.Errorf("core: nothing of the query survives translation for %s", id)
			sp.End(s.err)
			continue
		}
		if s.report != nil && !s.report.Clean() {
			sp.Annotate("dropped-terms", strconv.Itoa(len(s.report.DroppedTerms)))
		}
		if verify && s.report != nil && len(s.report.DroppedTerms) > 0 {
			askToVerify(s.sent, s.report.DroppedTerms)
		}
		sp.End(nil)
	}
}

// askToVerify adds to a sub-query's answer fields the title and author
// fields of its dropped terms: translate.PostFilter checks those terms
// against the fields that come back, so a field nobody asked for would
// fail every document. The fields are a new slice, never the caller's.
func askToVerify(sent *query.Query, dropped []query.Term) {
	fields := sent.AppendAnswerFields(nil)
	asked := len(fields)
	for _, t := range dropped {
		if f := t.EffectiveField(); (f == attr.FieldTitle || f == attr.FieldAuthor) && !slices.Contains(fields, f) {
			fields = append(fields, f)
		}
	}
	if len(fields) > asked {
		sent.AnswerFields = fields
	}
}

// fanOut is the fan-out step: it queries the planned sources through the
// dispatch layer, each under its own child span of the "fanout" stage and
// all within one Options.Timeout from the step's start, the deadline the
// dispatcher's admission reads. The wire calls run on each source's
// bounded worker pool (where identical sub-queries from concurrent
// searches coalesce into one call), and this search keeps one cheap
// waiter goroutine per source, so every query span ends at its true
// completion time.
//
// onDone (optional) observes each source's completion as it happens,
// serialized under the fan-out's mutex — the streaming path's hook (see
// emitter.begin); slot indexes p.ids, p.sources and the returned
// outcomes. fanOut returns once every source has completed.
func (m *Metasearcher) fanOut(ctx context.Context, p *plan, onDone func(slot int, oc *SourceOutcome)) []*SourceOutcome {
	fsp := obs.TraceFrom(ctx).StartSpan("fanout")
	defer fsp.End(nil)
	ctx, cancel := context.WithTimeoutCause(ctx, m.opts.Timeout, errTimeout)
	defer cancel()
	outcomes := make([]*SourceOutcome, len(p.ids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for slot := range p.ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oc := m.queryOne(ctx, fsp, p, slot)
			mu.Lock()
			defer mu.Unlock()
			outcomes[slot] = oc
			if onDone != nil {
				onDone(slot, oc)
			}
		}()
	}
	wg.Wait()
	return outcomes
}

// queryOne sends the plan's slot-th sub-query under a child span of fsp
// and waits for its outcome until ctx, the fan-out's deadline, ends. In
// verification mode it also re-checks the answer against the query parts
// the source could not evaluate.
func (m *Metasearcher) queryOne(ctx context.Context, fsp *obs.Span, p *plan, slot int) *SourceOutcome {
	id, src, opts := p.ids[slot], &p.sources[slot], &m.opts
	oc := &SourceOutcome{Sent: src.sent, Report: src.report}
	if src.err != nil {
		oc.Err = src.err
		return oc
	}
	mem := src.mem
	oc.Stale = src.entry.stale
	sp := fsp.Child(mem.querySpan)
	sp.SetSource(id)
	if oc.Stale {
		sp.Annotate("stale", "true")
	}
	// The wire call runs on the source's dispatch workers, not on this
	// goroutine; the dispatch child span records the queueing side of the
	// call (coalescing, queue wait) separately from the source's answer.
	dsp := sp.Child("dispatch")
	dsp.SetSource(id)
	conn, sent := mem.conn, src.sent
	start := opts.Now()
	// Each sub-query is one task and one wire call on the source's
	// workers; an identical sub-query already in flight — for this source,
	// as translated, so two user queries that translate alike share it —
	// is joined instead, and with it its one breaker admission. The task
	// adds no deadline: the batch context ends with its last waiter's.
	key := qcache.Keyer{Scope: mem.dispatchScope}.Key(sent)
	ticket, err := m.dispatcher.Submit(obs.WithSpan(ctx, sp), id, key, dispatch.Limits{},
		func(tctx context.Context) (any, error) {
			return m.call(tctx, id, func(ctx context.Context) (any, error) {
				return client.Ask(ctx, conn, sent)
			})
		})
	var res *result.Results
	if err == nil {
		// The wait — queue wait plus run — ends with the fan-out's
		// deadline or the search's own context (budget, cancellation);
		// the wire call is cancelled once nobody waits.
		v, werr := ticket.Wait(ctx)
		err = werr
		if v != nil {
			res = v.(*result.Results)
		}
		if d := ticket.RunFor(); d > 0 {
			oc.Elapsed = d // the shared wire call's own duration
		}
		dsp.Annotate("coalesced", strconv.FormatBool(!ticket.Led()))
		if n := ticket.Fanout(); n > 1 {
			dsp.Annotate("fanout", strconv.Itoa(n))
		}
	}
	if oc.Elapsed == 0 {
		oc.Elapsed = opts.Now().Sub(start)
	}
	// Calls that never reached the source (shed, refused, doomed, closed)
	// end the dispatch span; wire failures belong to the query span only.
	if dispatch.Declined(err) {
		dsp.End(err)
	} else {
		dsp.End(nil)
	}
	sp.End(err)
	m.opts.Metrics.Histogram(mem.querySeconds).Observe(oc.Elapsed)
	if err != nil {
		oc.Err = fmt.Errorf("core: querying %s: %w", id, err)
		m.opts.Metrics.Counter(mem.errsTotal).Inc()
		return oc
	}
	if ticket.Fanout() > 1 {
		// The batch served several waiters, so the Results value is
		// shared across searches; rank merging mutates documents (source
		// attributions, best-score promotion), so each waiter gets its
		// own copy.
		res = res.Clone()
	}
	oc.Results = res
	sp.Annotate("docs", strconv.Itoa(len(res.Documents)))
	if opts.PostFilter && src.report != nil && len(src.report.DroppedTerms) > 0 {
		res.Documents, src.unverified = translate.PostFilter(res.Documents, src.report.DroppedTerms)
	}
	return oc
}

// call is every dispatched task's way to its source, harvest or
// sub-query: the breaker admits it (Allow) and hears its outcome (Record)
// exactly once, so the waiters of one batch share one admission as they
// share one wire call. A refused call fails with dispatch.ErrRefused
// without reaching the source, so a queue behind an open circuit drains
// fast. A panic, and a call whose last waiter's Timeout ran out, are
// recorded as failures; a call every caller gave up on is not.
func (m *Metasearcher) call(ctx context.Context, id string, fn dispatch.Task) (any, error) {
	b := m.opts.Breaker
	if b == nil {
		return fn(ctx)
	}
	if !b.Allow(id) {
		return nil, fmt.Errorf("%w: %s: circuit open", dispatch.ErrRefused, id)
	}
	defer func() {
		if r := recover(); r != nil {
			b.Record(id, fmt.Errorf("core: call to %s panicked", id))
			panic(r)
		}
	}()
	v, err := fn(ctx)
	if err != nil && errors.Is(context.Cause(ctx), errTimeout) {
		err = errTimeout // the call itself saw only its context cancelled
	}
	b.Record(id, err)
	return v, err
}

// merge is the merging step (§3.3): the merger fuses the answering
// sources' ranks into the answer, whose cache lifetime it also names (see
// answerTTL). Every contacted source failing is an error — unless the
// breaker skipped some, when a degraded empty answer is the honest result
// and the caller can retry after the cooldown.
func (m *Metasearcher) merge(tr *obs.Trace, p *plan, outcomes []*SourceOutcome) (*Answer, time.Duration, error) {
	msp := tr.StartSpan("merge")
	defer msp.End(nil)
	ans := &Answer{Selected: p.ranked, Contacted: p.ids, Degraded: p.degraded,
		PerSource: make(map[string]*SourceOutcome, len(p.ids)+len(p.known))}
	for id, oc := range p.known {
		ans.PerSource[id] = oc
	}
	inputs := make([]merge.SourceResult, 0, len(p.ids))
	skipped := len(ans.Degraded.Skipped)
	for i, id := range p.ids {
		oc := outcomes[i]
		ans.PerSource[id] = oc
		ans.Degraded.note(id, oc)
		if oc.Err != nil || oc.Results == nil {
			continue
		}
		ans.Unverifiable = append(ans.Unverifiable, p.sources[i].unverified...)
		e := p.sources[i].entry // not nil: the source answered, so it was translated for
		inputs = append(inputs, merge.SourceResult{SourceID: id, Meta: e.meta, Summary: e.summary, Results: oc.Results})
	}
	if len(ans.Degraded.Skipped) > skipped {
		// A call the breaker refused never reached its source.
		ans.Contacted = slices.DeleteFunc(slices.Clone(p.ids), func(id string) bool { return refused(ans.PerSource[id]) })
	}
	ans.Degraded.sort()
	merger := m.opts.Merger
	msp.Annotate("strategy", merger.Name())
	msp.Annotate("inputs", strconv.Itoa(len(inputs)))
	if len(inputs) > 0 {
		// The final rank always comes from the ordinary batch merge — a
		// streaming search's incremental merger streamed a stable prefix
		// of exactly this rank and mutated nothing, so batch and streamed
		// answers are bit-identical.
		ans.Documents = merger.Merge(p.q, inputs)
		if max := p.q.EffectiveMaxResults(); len(ans.Documents) > max {
			ans.Documents = ans.Documents[:max]
		}
		m.opts.Metrics.Counter(m.mergeDocs).Add(int64(len(ans.Documents)))
	} else if len(ans.Degraded.Failed) > 0 && len(ans.Degraded.Skipped) == 0 {
		failures := make(map[string]error, len(ans.Degraded.Failed))
		for i, id := range p.ids {
			if outcomes[i].Err != nil {
				failures[id] = outcomes[i].Err
			}
		}
		return nil, 0, fmt.Errorf("core: all %d contacted sources failed: %w", len(p.ids), joinSorted(failures))
	}
	msp.Annotate("docs", strconv.Itoa(len(ans.Documents)))
	if d := ans.Degraded; len(d.Failed)+len(d.Skipped)+len(d.HarvestFailed) > 0 {
		// A source left out may be back for the next caller, so a partial
		// answer caches for the cache's floor, not for the fleet's
		// freshness lifetime (a negative TTL is clamped to
		// qcache.TTLFloor).
		return ans, -1, nil
	}
	return ans, answerTTL(p.sources, m.opts.Now()), nil
}

// answerTTL derives a merged answer's cache lifetime from the freshness
// metadata of the sources that produced it: the minimum qcache.FreshFor
// across the contacted sources, so the answer expires when its most
// volatile ingredient does. The metadata is the plan's own — what the
// answer was translated and merged with, not whatever a harvest has
// published since. Sources declaring neither DateExpires nor DateChanged
// contribute nothing; if no source declares anything, 0 is returned and
// the cache falls back to its configured TTL. The cache clamps the result
// to [qcache.TTLFloor, qcache.TTLCeiling].
func answerTTL(sources []sourcePlan, now time.Time) time.Duration {
	var min time.Duration
	found := false
	for _, s := range sources {
		if s.entry == nil {
			continue
		}
		ttl, ok := qcache.FreshFor(s.entry.meta.DateChanged, s.entry.meta.DateExpires, now)
		if !ok {
			continue
		}
		if !found || ttl < min {
			min, found = ttl, true
		}
	}
	return min
}
