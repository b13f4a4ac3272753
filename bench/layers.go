package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/dispatch"
	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/peer"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/resilient"
	"starts/internal/result"
	"starts/internal/soif"
	"starts/internal/source"
	"starts/internal/translate"
)

// Per-layer numbers come from two places. Live numbers are what the four
// shims saw during the traced phase. Replay numbers take values captured
// at a layer boundary during that phase (queries, translated queries,
// per-source results) and push them through that layer's public entry
// point alone, single-threaded on the now idle fleet: they say what the
// layer costs by itself and leave out contention. Self times are
// differences of the two kinds, so they inherit both errors.

// replayPasses is how many times each replay walks its inputs; the
// fastest pass is reported, for the reason quiet windows are.
const replayPasses = 3

// replay runs f(0..n-1) once to warm up and replayPasses times timed, and
// returns the fastest pass's mean microseconds per call.
func replay(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	best := time.Duration(-1)
	for pass := 0; pass <= replayPasses; pass++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		if d := time.Since(start); pass > 0 && (best < 0 || d < best) {
			best = d
		}
	}
	return float64(best) / float64(n) / 1e3
}

// replayFresh is replay for a layer that consumes its input: prepare
// builds call i's input outside the clock.
func replayFresh[T any](n int, prepare func(i int) T, f func(i int, in T)) float64 {
	if n == 0 {
		return 0
	}
	best := time.Duration(-1)
	for pass := 0; pass <= replayPasses; pass++ {
		var d time.Duration
		for i := 0; i < n; i++ {
			in := prepare(i)
			start := time.Now()
			f(i, in)
			d += time.Since(start)
		}
		if pass > 0 && (best < 0 || d < best) {
			best = d
		}
	}
	return float64(best) / float64(n) / 1e3
}

// mallocs counts heap allocations made by f on this goroutine; callers
// run it with the fleet idle.
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// subQuery is one translated query as a source received it, with what the
// source answered.
type subQuery struct {
	src  *source.Source
	sent *query.Query
	res  *result.Results
}

// layers derives the per-layer metrics of one traced pass into m.
type layers struct {
	w      *workload
	f      *fleet
	r      *rig
	tr     *tracer
	traced *phaseResult
	m      map[string]float64

	caps []captured
	subs []subQuery // every captured (query, contacted source) that answered
	// Means over the traced queries, from the tracer.
	queries, wired, searchUS, preWiredUS float64
	// Replayed select + translate cost of one search.
	selectTranslateUS float64
}

// layerMetrics derives every per-layer metric of one traced pass.
func layerMetrics(w *workload, f *fleet, r *rig, tr *tracer, traced *phaseResult, untracedQuietMS float64, evictions int64) map[string]float64 {
	l := &layers{w: w, f: f, r: r, tr: tr, traced: traced, m: map[string]float64{}, caps: tr.captured}
	byID := map[string]*source.Source{}
	for _, src := range f.sources {
		byID[src.ID()] = src
	}
	for _, c := range l.caps {
		for _, id := range c.ans.Contacted {
			if oc := c.ans.PerSource[id]; oc != nil && oc.Sent != nil && oc.Results != nil {
				l.subs = append(l.subs, subQuery{src: byID[id], sent: oc.Sent, res: oc.Results})
			}
		}
	}
	l.live(evictions)
	l.answers()
	l.selection()
	l.engine()
	l.merge()
	l.cache()
	l.codecs()
	l.middleware()
	if w.Name == "cache-hot" {
		// The workload a shared cache tier would serve.
		l.peer()
	}
	quiet := quietDecile(traced.windows, svcOf)
	l.m["bench.trace_overhead_ratio"] = ratio(quiet/1e6, untracedQuietMS)
	l.m["bench.gen_lag_p99_ms"] = quantile(traced.lag, 0.99) / 1e6
	l.m["bench.host_noise_ratio"] = ratio(windowQuantile(traced.windows, svcOf, 0.5), quiet)
	l.m["bench.cpu_utilisation"] = traced.utilisation()
	return l.m
}

// live reads off what the traced loop and the four shims counted.
func (l *layers) live(evictions int64) {
	m, tr := l.m, l.tr
	n := float64(tr.queries)
	l.queries, l.wired = n, n-float64(tr.noWire)
	l.searchUS = mean(l.traced.lat) / 1e3
	l.preWiredUS = ratio(float64(tr.preNS), l.wired) / 1e3
	m["core.pre_wire_us"] = ratio(float64(tr.preNS+tr.noWireNS), n) / 1e3
	m["core.fanout_window_us"] = ratio(float64(tr.windowNS), n) / 1e3
	m["core.post_wire_us"] = ratio(float64(tr.postNS), n) / 1e3
	m["core.sources_contacted"] = ratio(float64(tr.contacted), n)
	m["core.harvest_ms"] = float64(l.r.harvest) / 1e6
	m["dispatch.shed_per_query"] = ratio(float64(tr.sheds), n)
	m["merge.early_docs_ratio"] = ratio(float64(tr.earlyDocs), float64(tr.totalDocs))
	m["bench.sum_check_ratio"] = ratio(m["core.pre_wire_us"]+m["core.fanout_window_us"]+m["core.post_wire_us"], l.searchUS)

	// S1.
	calls, items := float64(tr.wireCalls.Load()), float64(tr.wireItems.Load())
	m["wire_calls_per_query"] = ratio(calls, n)
	m["dispatch.items_per_wire_call"] = ratio(items, calls)
	m["dispatch.inflight_max"] = float64(tr.inflightMax.Load())
	m["resilient.retries_per_query"] = ratio(items-float64(tr.wireFound), n)
	m["client.call_us"] = ratio(float64(tr.wireNS.Load()), calls) / 1e3
	// S2.
	if served := float64(tr.serverCalls.Load()); served > 0 {
		m["server.handle_us"] = float64(tr.serverNS.Load()) / served / 1e3
		m["server.flushes_per_response"] = float64(tr.flushes.Load()) / served
		m["client.codec_net_us"] = m["client.call_us"] - float64(tr.serverTotalNS.Load())/served/1e3
	}
	// S3.
	sent, received := float64(tr.reqBytes.Load()), float64(tr.respBytes.Load())
	requests := float64(tr.httpCalls.Load())
	m["client.req_kb_per_call"] = ratio(sent, requests) / 1024
	m["client.resp_kb_per_call"] = ratio(received, requests) / 1024
	m["client.conns_opened"] = float64(tr.connsOpened.Load())
	m["wire_kb_per_query"] = ratio(sent+received, n) / 1024
	// S4.
	gets := float64(tr.gets.Load())
	m["qcache.hit_ratio"] = ratio(float64(tr.getHits.Load()), gets)
	m["qcache.store_get_us"] = ratio(float64(tr.getNS.Load()), gets) / 1e3
	m["qcache.store_put_us"] = ratio(float64(tr.putNS.Load()), float64(tr.puts.Load())) / 1e3
	m["qcache.evictions_per_query"] = ratio(float64(evictions), n)
}

// answers counts what the captured answers themselves say.
func (l *layers) answers() {
	var dropped, inputDocs, spans, coalesced float64
	for _, c := range l.caps {
		for _, id := range c.ans.Contacted {
			if oc := c.ans.PerSource[id]; oc != nil && oc.Report != nil {
				dropped += float64(len(oc.Report.DroppedTerms))
			}
		}
		ti := c.ans.Trace.Snapshot()
		spans += float64(ti.SpanCount())
		if sp := ti.Find("cache"); sp != nil {
			if v, _ := sp.Attr("outcome"); v == qcache.Coalesced.String() {
				coalesced++
			}
		}
	}
	for _, s := range l.subs {
		inputDocs += float64(len(s.res.Documents))
	}
	n := float64(len(l.caps))
	l.m["translate.dropped_terms_per_query"] = ratio(dropped, n)
	l.m["merge.input_docs_per_query"] = ratio(inputDocs, n)
	l.m["engine.docs_returned"] = ratio(inputDocs, float64(len(l.subs)))
	l.m["obs.spans_per_query"] = ratio(spans, n)
	l.m["qcache.coalesced_ratio"] = ratio(coalesced, n)
}

// selection replays what a search does before the wire — gloss,
// translate, a dispatch submission — and derives the queue wait.
func (l *layers) selection() {
	m := l.m
	var infos []gloss.SourceInfo
	var summaryKB, parseMS float64
	for _, src := range l.f.sources {
		md, sum, _ := l.r.ms.Harvested(src.ID())
		infos = append(infos, gloss.SourceInfo{ID: src.ID(), Summary: sum, Meta: md})
		data, err := sum.Marshal()
		if err != nil {
			fatalf("marshalling summary of %s: %v", src.ID(), err)
		}
		summaryKB += float64(len(data)) / 1024
		parseMS += replay(1, func(int) {
			if _, err := meta.ParseSummary(data); err != nil {
				fatalf("parsing summary of %s: %v", src.ID(), err)
			}
		}) / 1e3
	}
	m["meta.summary_kb"] = summaryKB / float64(len(l.f.sources))
	m["meta.summary_parse_ms"] = parseMS / float64(len(l.f.sources))

	m["gloss.rank_us"] = replay(len(l.caps), func(i int) { gloss.VSum{}.Rank(l.caps[i].q, infos) })
	type translation struct {
		q  *query.Query
		md *meta.SourceMeta
	}
	var todo []translation
	for _, c := range l.caps {
		for _, id := range c.ans.Contacted {
			md, _, _ := l.r.ms.Harvested(id)
			todo = append(todo, translation{c.q, md})
		}
	}
	m["translate.for_source_us"] = replay(len(todo), func(i int) { translate.ForSource(todo[i].q, todo[i].md) })
	l.selectTranslateUS = m["gloss.rank_us"] + m["translate.for_source_us"]*m["core.sources_contacted"]

	ctx := context.Background()
	d := dispatch.New(dispatch.Config{})
	defer d.Close()
	m["dispatch.submit_us"] = replay(2000, func(int) {
		t, err := d.Submit(ctx, "idle", "", dispatch.Limits{}, func(context.Context) (any, error) { return nil, nil })
		if err == nil {
			_, err = t.Wait(ctx)
		}
		if err != nil {
			fatalf("dispatch replay: %v", err)
		}
	})
	if l.wired > 0 {
		m["dispatch.queue_wait_us"] = l.preWiredUS - l.selectTranslateUS - m["dispatch.submit_us"]
	}
}

// engine replays the captured translated queries straight into the
// sources.
func (l *layers) engine() {
	m := l.m
	var ranked, filtered []subQuery
	for _, s := range l.subs {
		if s.sent.Filter == nil {
			ranked = append(ranked, s)
		} else {
			filtered = append(filtered, s)
		}
	}
	search := func(set []subQuery) func(int) {
		return func(i int) {
			if _, err := set[i].src.Search(set[i].sent); err != nil {
				fatalf("engine replay: %v", err)
			}
		}
	}
	all := search(l.subs)
	m["engine.search_us"] = replay(len(l.subs), all)
	m["engine.ranked_us"] = replay(len(ranked), search(ranked))
	m["engine.filter_us"] = replay(len(filtered), search(filtered))
	m["engine.allocs_per_search"] = ratio(mallocs(func() {
		for i := range l.subs {
			all(i)
		}
	}), float64(len(l.subs)))
	m["index.build_docs_per_s"] = ratio(float64(l.f.docs), l.f.buildDur.Seconds())
	m["index.heap_kb_per_doc"] = ratio(float64(l.f.heapGrew)/1024, float64(l.f.docs))
	if handle, ok := m["server.handle_us"]; ok {
		m["server.codec_us"] = handle - m["engine.search_us"]*m["dispatch.items_per_wire_call"]
	}
}

// merge replays the captured per-source results through the strategy.
// Merging rewrites documents in place, so every call gets fresh clones,
// made outside the clock.
func (l *layers) merge() {
	strat := merge.TermStats{}
	inputs := func(i int) []merge.SourceResult {
		var in []merge.SourceResult
		c := l.caps[i]
		for _, id := range c.ans.Contacted {
			if oc := c.ans.PerSource[id]; oc != nil && oc.Results != nil {
				md, sum, _ := l.r.ms.Harvested(id)
				in = append(in, merge.SourceResult{SourceID: id, Meta: md, Summary: sum, Results: oc.Results.Clone()})
			}
		}
		return in
	}
	l.m["merge.fuse_us"] = replayFresh(len(l.caps), inputs, func(i int, in []merge.SourceResult) {
		strat.Merge(l.caps[i].q, in)
	})
	l.m["merge.incremental_us"] = replayFresh(len(l.caps), inputs, func(i int, in []merge.SourceResult) {
		slot := make(map[string]int, len(in))
		roster := make([]merge.StreamSource, len(in))
		for j, s := range in {
			slot[s.SourceID] = j
			roster[j] = merge.StreamSource{SourceID: s.SourceID, Meta: s.Meta, Summary: s.Summary}
		}
		inc := merge.NewIncremental(strat, l.caps[i].q, roster)
		for _, id := range l.caps[i].order {
			if j, ok := slot[id]; ok {
				inc.Offer(j, in[j].Results)
			}
		}
		inc.Finish()
	})
	replayed := l.selectTranslateUS + l.m["merge.fuse_us"]
	l.m["core.self_us"] = l.searchUS - l.m["core.fanout_window_us"] - ratio(l.wired, l.queries)*replayed
}

// cache replays the answer cache's key and hit path alone, and measures
// what a miss costs on top of the search it runs.
func (l *layers) cache() {
	ctx := context.Background()
	ms := l.r.ms
	l.m["qcache.key_us"] = replay(len(l.caps), func(i int) { ms.CacheKey(l.caps[i].q) })
	hot := qcache.New(qcache.Config{TTL: cacheTTL})
	keys := make([]string, len(l.caps))
	for i, c := range l.caps {
		keys[i] = ms.CacheKey(c.q)
		hot.Put(keys[i], c.ans)
	}
	l.m["qcache.hit_us"] = replay(len(l.caps), func(i int) {
		_, oc, err := hot.Do(ctx, keys[i], func(context.Context) (any, error) { return nil, errors.New("miss") })
		if err != nil || oc != qcache.Hit {
			fatalf("qcache replay: outcome %v, %v", oc, err)
		}
	})
	if l.w.CacheEntries == 0 {
		return
	}
	// Each captured query searched once through an empty cache (a miss and
	// a fill) and once around the cache, alternating which goes first.
	search := func(q *query.Query, opt core.SearchOption) time.Duration {
		start := time.Now()
		if _, err := ms.Search(ctx, q, opt); err != nil {
			fatalf("paired search: %v", err)
		}
		return time.Since(start)
	}
	var with, without time.Duration
	for i, c := range l.caps {
		empty := core.WithCache(qcache.New(qcache.Config{MaxEntries: l.w.CacheEntries, TTL: cacheTTL}))
		if i%2 == 0 {
			with += search(c.q, empty)
			without += search(c.q, core.WithNoCache())
		} else {
			without += search(c.q, core.WithNoCache())
			with += search(c.q, empty)
		}
	}
	l.m["qcache.miss_overhead_us"] = ratio(float64(with-without)/1e3, float64(len(l.caps)))
}

// codecs replays the captured sub-queries and results through the wire
// codecs.
func (l *layers) codecs() {
	m, subs := l.m, l.subs
	m["client.encode_us"] = replay(len(subs), func(i int) {
		o, err := subs[i].sent.ToSOIF()
		if err == nil {
			_, err = soif.Marshal(o)
		}
		if err != nil {
			fatalf("encode replay: %v", err)
		}
	})
	bodies := make([][]byte, len(subs))
	objs := make([][]*soif.Object, len(subs))
	var bodyBytes float64
	for i, s := range subs {
		objs[i] = s.res.ToSOIF()
		b, err := soif.MarshalAll(objs[i])
		if err != nil {
			fatalf("marshal replay: %v", err)
		}
		bodies[i] = b
		bodyBytes += float64(len(b))
	}
	m["client.decode_us"] = replay(len(subs), func(i int) {
		if _, err := result.Parse(bodies[i]); err != nil {
			fatalf("decode replay: %v", err)
		}
	})
	// The same objects marshalled without error just above.
	marshalUS := replay(len(subs), func(i int) { _, _ = soif.MarshalAll(objs[i]) })
	unmarshalUS := replay(len(subs), func(i int) {
		if _, err := soif.UnmarshalAll(bodies[i]); err != nil {
			fatalf("unmarshal replay: %v", err)
		}
	})
	perBody := ratio(bodyBytes, float64(len(subs)))
	m["soif.marshal_mb_s"] = ratio(perBody, marshalUS) // bytes per µs = MB/s
	m["soif.unmarshal_mb_s"] = ratio(perBody, unmarshalUS)
	m["soif.allocs_per_kb"] = ratio(mallocs(func() {
		for i := range subs {
			_, _ = soif.MarshalAll(objs[i])
			_, _ = soif.UnmarshalAll(bodies[i])
		}
	}), 2*bodyBytes/1024)
}

// noopConn answers every query with one fixed result: the floor under the
// middleware overhead measurements.
type noopConn struct {
	leafConn
	res *result.Results
}

func (c noopConn) Query(context.Context, *query.Query) (*result.Results, error) { return c.res, nil }

// middleware times each conn wrapper around a no-op conn, minus the no-op.
func (l *layers) middleware() {
	if len(l.subs) == 0 {
		return
	}
	ctx := context.Background()
	noop := noopConn{leafConn: client.NewLocalConn(l.f.sources[0], nil), res: l.subs[0].res}
	call := func(c client.Conn) float64 {
		return replay(2000, func(int) {
			if _, err := c.Query(ctx, l.subs[0].sent); err != nil {
				fatalf("middleware replay: %v", err)
			}
		})
	}
	floor := call(noop)
	l.m["resilient.wrap_overhead_us"] = call(resilient.Wrap(noop, resilient.RetryPolicy{}, nil)) - floor
	l.m["obs.wrap_overhead_us"] = call(obs.WrapConn(noop, obs.NewRegistry())) - floor
}

// peer times remote puts and gets of captured results between two stores:
// b owns the whole ring and serves it on a loopback listener, a is a pure
// client of it.
func (l *layers) peer() {
	// The hot pool repeats its popular queries, so the captured sub-queries
	// repeat keys: the replay takes the first 100 distinct ones.
	var subs []subQuery
	var keys []string
	seen := map[string]bool{}
	for _, s := range l.subs {
		key := qcache.Keyer{Scope: "bench/" + s.src.ID()}.Key(s.sent)
		if !seen[key] && len(subs) < 100 {
			seen[key] = true
			subs, keys = append(subs, s), append(keys, key)
		}
	}
	n := len(subs)
	if n == 0 {
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("peer listener: %v", err)
	}
	url := "http://" + ln.Addr().String()
	b := peer.New(peer.Config{Self: url})
	hs := &http.Server{Handler: peer.NewHandler(b)}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed at Close below
	defer hs.Close()
	a := peer.New(peer.Config{Peers: []string{url}, Timeout: 5 * time.Second})
	now := time.Now()
	var kb float64
	for _, s := range subs {
		data, err := peer.ResultsCodec{}.Encode(s.res)
		if err != nil {
			fatalf("peer encode: %v", err)
		}
		kb += float64(len(data)) / 1024
	}
	l.m["peer.entry_kb"] = kb / float64(n)
	l.m["peer.put_us"] = replay(n, func(i int) {
		a.Put(keys[i], qcache.Entry{Val: subs[i].res, Expires: now.Add(cacheTTL), StaleUntil: now.Add(2 * cacheTTL)})
	})
	if got := b.Local().Len(); got != n {
		fatalf("peer replay: %d of %d entries reached the owner", got, n)
	}
	l.m["peer.remote_get_us"] = replay(n, func(i int) {
		if _, ok := a.Get(keys[i], now); !ok {
			fatalf("peer replay: remote get missed %s", keys[i])
		}
	})
}
