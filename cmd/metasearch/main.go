// Command metasearch runs the full metasearch pipeline against one or
// more STARTS resources served over HTTP: discovery, metadata/summary
// harvesting, GlOSS source selection, per-source query translation,
// concurrent evaluation and rank merging.
//
//	metasearch -resources http://127.0.0.1:8080/resource \
//	           -ranking 'list((body-of-text "database"))' \
//	           -select vsum -merge term-stats -max-sources 3
//
// Resilience knobs: -retries/-retry-base (per-call retries with
// exponential backoff), -breaker-after/-breaker-cooldown (per-source
// circuit breaker), -budget (total search deadline), -adaptive
// (past-performance selection penalties), and -fault-rate/-fault-latency
// /-fault-seed (client-side fault injection for testing).
//
// Distributed tier: -peers shards a per-source result cache across a
// fleet of metasearchers on a consistent-hash ring (-peer-replicas
// virtual nodes each; -peer-self names this process's own entry); a
// query any peer has answered is a remote cache hit here, and a dead
// peer degrades to a local miss within -peer-timeout.
//
// -trace prints the search's span tree (harvest, select, translate,
// per-source fan-out, merge — with per-conn call spans and retry
// annotations nested inside) and a metrics snapshot to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"starts"
	"starts/internal/gloss"
	"starts/internal/merge"
)

func main() {
	var (
		resources  = flag.String("resources", "", "comma-separated resource URLs")
		filter     = flag.String("filter", "", "filter expression")
		ranking    = flag.String("ranking", "", "ranking expression")
		selectName = flag.String("select", "vsum", "source selector: vsum | vmax | bgloss | random")
		mergeName  = flag.String("merge", "term-stats", "merge strategy: term-stats | term-stats-local | scaled | raw | round-robin")
		maxSources = flag.Int("max-sources", 0, "contact at most N sources (0 = all promising)")
		max        = flag.Int("max", 10, "maximum number of merged documents")
		verify     = flag.Bool("verify", false, "post-filter results against dropped query parts")
		timeout    = flag.Duration("timeout", 15*time.Second, "per-source timeout")

		budget          = flag.Duration("budget", 0, "total deadline for the whole search, harvesting included (0 = none)")
		retries         = flag.Int("retries", 0, "retry each source call up to N extra times with exponential backoff")
		retryBase       = flag.Duration("retry-base", 100*time.Millisecond, "first retry backoff (doubles per retry, jittered)")
		breakerAfter    = flag.Int("breaker-after", 0, "open a source's circuit after N consecutive failures (0 = no breaker)")
		breakerCooldown = flag.Duration("breaker-cooldown", 10*time.Second, "how long an open circuit sheds traffic before probing")
		adaptive        = flag.Bool("adaptive", false, "discount selection goodness by observed latency, failures and breaker state")
		cacheSize       = flag.Int("cache-size", 0, "cache merged answers for repeated queries, at most N entries (0 = no cache)")
		cacheTTL        = flag.Duration("cache-ttl", time.Minute, "fallback freshness for cached answers whose sources declare no DateExpires/DateChanged (expired entries serve stale while a refresh runs)")
		maxInflight     = flag.Int("max-inflight", 0, "bound concurrent uncached fan-outs; excess queries are shed with a fast error (0 = unbounded; implies caching)")
		warmFile        = flag.String("warm-file", "", "workload file: replay it through the cache before searching, and save this run's workload back to it (implies caching)")
		warmConcurrency = flag.Int("warm-concurrency", 0, "bound concurrent warm-start replays (0 = default)")
		faultRate       = flag.Float64("fault-rate", 0, "inject client-side faults: per-call error probability (testing)")
		faultLatency    = flag.Duration("fault-latency", 0, "inject client-side faults: added per-call latency (testing)")
		faultSeed       = flag.Int64("fault-seed", 1, "fault-injection seed")
		srcConcurrency  = flag.Int("source-concurrency", 0, "parallel wire calls per source (0 = default 4)")
		srcQueue        = flag.Int("source-queue", 0, "queued batches per source before shedding with a fast error (0 = default 64)")
		maxBatchWire    = flag.Int("max-batch-wire", 0, "distinct queued queries multiplexed into one wire call per source (0 = default 16)")
		peers           = flag.String("peers", "", "comma-separated peer base URLs forming the distributed per-source result-cache ring")
		peerSelf        = flag.String("peer-self", "", "this process's own URL among -peers (empty = pure client of the ring)")
		peerReplicas    = flag.Int("peer-replicas", 0, "virtual nodes per peer on the consistent-hash ring (0 = default 64)")
		peerTimeout     = flag.Duration("peer-timeout", 0, "per-peer-call budget before degrading to the local store (0 = default 150ms)")
		stream          = flag.Bool("stream", false, "print documents as their merged rank becomes certain, instead of after the slowest source")
		trace           = flag.Bool("trace", false, "print the search's span tree and a metrics snapshot to stderr")
	)
	flag.Parse()
	if *resources == "" {
		fmt.Fprintln(os.Stderr, "metasearch: -resources is required")
		flag.Usage()
		os.Exit(2)
	}

	selectors := map[string]starts.Selector{
		"vsum": gloss.VSum{}, "vmax": gloss.VMax{}, "bgloss": gloss.BGloss{}, "random": gloss.Random{},
	}
	mergers := map[string]starts.MergeStrategy{
		"term-stats": merge.TermStats{}, "term-stats-local": merge.TermStats{LocalIDF: true},
		"scaled": merge.Scaled{}, "raw": merge.RawScore{}, "round-robin": merge.RoundRobin{},
	}
	sel, ok := selectors[*selectName]
	if !ok {
		log.Fatalf("metasearch: unknown selector %q", *selectName)
	}
	mrg, ok := mergers[*mergeName]
	if !ok {
		log.Fatalf("metasearch: unknown merge strategy %q", *mergeName)
	}

	reg := starts.NewMetricsRegistry()
	opts := starts.MetasearcherOptions{
		Selector: sel, Merger: mrg, MaxSources: *maxSources,
		Timeout: *timeout, PostFilter: *verify, Budget: *budget,
		Metrics:           reg,
		SourceConcurrency: *srcConcurrency, QueueDepth: *srcQueue, MaxBatchWire: *maxBatchWire,
	}
	if *cacheSize > 0 || *maxInflight > 0 || *warmFile != "" {
		opts.Cache = starts.NewQueryCache(starts.QueryCacheConfig{
			MaxEntries: *cacheSize, TTL: *cacheTTL,
			MaxInflight: *maxInflight, Metrics: reg,
		})
	}
	var br *starts.Breaker
	if *breakerAfter > 0 {
		br = starts.NewBreaker(starts.BreakerConfig{
			FailureThreshold: *breakerAfter, Cooldown: *breakerCooldown,
			Metrics: reg,
		})
		opts.Breaker = br
	}
	ms := starts.NewMetasearcher(opts)
	// Per-call options instead of mutating shared state: the adaptive
	// selector wraps the flag-chosen one for this run's search only.
	var sopts []starts.SearchOption
	if *adaptive {
		as := ms.NewAdaptiveSelector(sel)
		if br != nil {
			as.Broken = br.Broken
		}
		sopts = append(sopts, starts.WithSelector(as))
	}
	// The per-conn stack, innermost first: faults are injected at the
	// source, the observer times every attempt, and the retrier re-runs
	// observed failures.
	var mw []starts.ConnMiddleware
	if *faultRate > 0 || *faultLatency > 0 {
		mw = append(mw, starts.FaultyMiddleware(starts.FaultConfig{
			Seed: *faultSeed, ErrorRate: *faultRate, Latency: *faultLatency,
		}))
	}
	mw = append(mw, starts.ObserveMiddleware(reg))
	if *retries > 0 {
		retryBudget := &starts.RetryBudget{}
		mw = append(mw, starts.RetryMiddleware(starts.RetryPolicy{
			MaxAttempts: *retries + 1, BaseDelay: *retryBase,
		}, retryBudget))
	}
	// The distributed cache tier: per-source results live in a query
	// cache whose store is sharded across the -peers ring, so a query
	// answered by any peer is a remote hit here. Appended last, the cache
	// sits outermost — outside the retrier (retries re-run the source,
	// never the cache) with peer lookups behind bounded timeouts and
	// per-peer breakers (a dead peer is a local miss, not a stall).
	if *peers != "" {
		ps := starts.NewPeerStore(starts.PeerStoreConfig{
			Self:     *peerSelf,
			Peers:    splitList(*peers),
			Replicas: *peerReplicas,
			Timeout:  *peerTimeout,
			Codec:    starts.PeerResultsCodec,
			Metrics:  reg,
		})
		mw = append(mw, starts.CacheMiddleware(starts.NewQueryCache(starts.QueryCacheConfig{
			Store: ps, TTL: *cacheTTL, Metrics: reg,
		})))
	}
	ctx := context.Background()
	hc := starts.NewClient(nil)
	for _, url := range splitList(*resources) {
		conns, err := hc.Discover(ctx, url)
		if err != nil {
			log.Fatalf("metasearch: discovering %s: %v", url, err)
		}
		for _, c := range conns {
			ms.Add(starts.ChainConn(c, mw...))
		}
	}
	if err := ms.Harvest(ctx); err != nil {
		log.Fatalf("metasearch: harvesting: %v", err)
	}
	fmt.Fprintf(os.Stderr, "harvested %d sources\n", len(ms.SourceIDs()))

	// Warm start: replay the previous run's workload through the cache so
	// this run's repeated queries hit from the first request.
	if *warmFile != "" {
		if entries, werr := starts.LoadWorkloadFile(*warmFile); werr != nil {
			if !os.IsNotExist(werr) {
				log.Fatalf("metasearch: loading warm file: %v", werr)
			}
		} else if len(entries) > 0 {
			stats, werr := ms.Warm(ctx, entries, *warmConcurrency)
			if werr != nil {
				log.Fatalf("metasearch: warming: %v", werr)
			}
			fmt.Fprintf(os.Stderr, "warm start: %s\n", stats)
		}
	}

	q := starts.NewQuery()
	var err error
	if *filter != "" {
		if q.Filter, err = starts.ParseFilter(*filter); err != nil {
			log.Fatalf("metasearch: %v", err)
		}
	}
	if *ranking != "" {
		if q.Ranking, err = starts.ParseRanking(*ranking); err != nil {
			log.Fatalf("metasearch: %v", err)
		}
	}
	q.MaxResults = *max

	var tr starts.Trace
	if *trace {
		sopts = append(sopts, starts.WithTrace(&tr))
	}
	var answer *starts.Answer
	var err2 error
	if *stream {
		// Streamed delivery: each document prints the moment its merged
		// rank can no longer change, so the fast sources' head of the
		// answer appears while slower sources are still being waited on.
		answer, err2 = ms.SearchStream(ctx, q, func(ev starts.StreamEvent) error {
			for i, d := range ev.Docs {
				fmt.Printf("%2d. %-60s %v\n", ev.Rank+i+1, d.Title(), d.Sources)
				fmt.Printf("    %s\n", d.Linkage())
			}
			return nil
		}, sopts...)
	} else {
		answer, err2 = ms.Search(ctx, q, sopts...)
	}
	if *trace {
		fmt.Fprint(os.Stderr, tr.Snapshot().Tree())
		fmt.Fprint(os.Stderr, reg.Render())
	}
	if err2 != nil {
		log.Fatalf("metasearch: %v", err2)
	}
	if *stream {
		fmt.Println()
	}
	fmt.Printf("selection (%s):", sel.Name())
	for _, r := range answer.Selected {
		fmt.Printf(" %s=%.1f", r.ID, r.Goodness)
	}
	fmt.Printf("\ncontacted: %v\nmerge: %s\n", answer.Contacted, mrg.Name())
	if !*stream {
		fmt.Println()
		for i, d := range answer.Documents {
			fmt.Printf("%2d. %-60s %v\n", i+1, d.Title(), d.Sources)
			fmt.Printf("    %s\n", d.Linkage())
		}
	}
	if answer.Degraded.Any() {
		fmt.Fprintf(os.Stderr, "degraded answer: %s\n", answer.Degraded)
	}
	for id, oc := range answer.PerSource {
		switch {
		case oc.Err != nil:
			fmt.Fprintf(os.Stderr, "source %s failed: %v\n", id, oc.Err)
		case oc.Report != nil && !oc.Report.Clean():
			fmt.Fprintf(os.Stderr, "source %s: lossy translation (%d dropped terms, filter dropped %v, ranking dropped %v)\n",
				id, len(oc.Report.DroppedTerms), oc.Report.DroppedFilter, oc.Report.DroppedRanking)
		}
	}
	if *warmFile != "" {
		if werr := starts.SaveWorkloadFile(*warmFile, ms.Workload()); werr != nil {
			fmt.Fprintf(os.Stderr, "metasearch: saving warm file: %v\n", werr)
		}
	}
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
