// Command startsh is an interactive STARTS shell: it discovers one or
// more resources, harvests their sources, and then reads commands from
// stdin:
//
//	sources                         list harvested sources
//	meta <source-id>                show a source's metadata (SOIF)
//	summary <source-id>             show content-summary statistics
//	select <ranking-expr>           rank sources for a query (vGlOSS)
//	q <ranking-expr>                metasearch with a ranking expression
//	qs <ranking-expr>               streamed metasearch: documents print
//	                                as their merged rank becomes certain
//	f <filter-expr>                 metasearch with a filter expression
//	stats                           per-source statistics + metrics snapshot
//	help                            this text
//	quit
//
//	startsh -resources http://127.0.0.1:8080/resource
//
// Resilience flags: -retries (per-call retries with backoff),
// -breaker-after/-breaker-cooldown (per-source circuit breaker, state
// shown by stats), -budget (total deadline per search). With -trace,
// every q/f command prints the search's span tree.
//
// Dispatch flags: -source-concurrency and -source-queue size each
// source's worker pool and queue (stats shows the per-source dispatch
// counters); -max-batch-wire bounds how many queued queries one wire
// call multiplexes at a source (the /query-batch endpoint). With
// -warm-file, -warm-interval snapshots the workload periodically instead
// of only on quit; -debug-addr serves /metrics, /debug/workload and
// /debug/dispatch for inspection while the shell runs.
//
// Distributed tier: -peers shards the per-source result cache across a
// fleet of metasearchers on a consistent-hash ring; this shell serves
// its own ring share (and GET /debug/peers) on -debug-addr. With
// -broker-addr the shell also publishes ITSELF as a STARTS source
// (ZBroker-style), so a front metasearcher can discover it at
// /resource and route queries here by this region's GlOSS summary.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"starts"
	"starts/internal/gloss"
)

func main() {
	var (
		resources       = flag.String("resources", "", "comma-separated resource URLs")
		budget          = flag.Duration("budget", 0, "total deadline per search (0 = none)")
		retries         = flag.Int("retries", 0, "retry each source call up to N extra times with exponential backoff")
		breakerAfter    = flag.Int("breaker-after", 0, "open a source's circuit after N consecutive failures (0 = no breaker)")
		breakerCooldown = flag.Duration("breaker-cooldown", 10*time.Second, "how long an open circuit sheds traffic before probing")
		cacheSize       = flag.Int("cache-size", 0, "cache merged answers for repeated queries, at most N entries (0 = no cache)")
		cacheTTL        = flag.Duration("cache-ttl", time.Minute, "fallback freshness for cached answers whose sources declare no DateExpires/DateChanged (expired entries serve stale while a refresh runs)")
		maxInflight     = flag.Int("max-inflight", 0, "bound concurrent uncached fan-outs; excess queries are shed with a fast error (0 = unbounded; implies caching)")
		warmFile        = flag.String("warm-file", "", "workload file: replay it through the cache on startup, and save this session's workload back to it on quit (implies caching)")
		warmConcurrency = flag.Int("warm-concurrency", 0, "bound concurrent warm-start replays (0 = default)")
		warmInterval    = flag.Duration("warm-interval", time.Minute, "snapshot the workload to -warm-file this often (and once on quit)")
		srcConcurrency  = flag.Int("source-concurrency", 0, "parallel wire calls per source (0 = default 4)")
		srcQueue        = flag.Int("source-queue", 0, "queued batches per source before shedding with a fast error (0 = default 64)")
		maxBatchWire    = flag.Int("max-batch-wire", 0, "distinct queued queries multiplexed into one wire call per source (0 = default 16)")
		debugAddr       = flag.String("debug-addr", "", "serve /metrics, /debug/workload and /debug/dispatch on this address (e.g. 127.0.0.1:6060)")
		peers           = flag.String("peers", "", "comma-separated peer base URLs forming the distributed per-source result-cache ring")
		peerSelf        = flag.String("peer-self", "", "this shell's own URL among -peers (empty = http://<debug-addr>, or a pure client without one)")
		peerReplicas    = flag.Int("peer-replicas", 0, "virtual nodes per peer on the consistent-hash ring (0 = default 64)")
		peerTimeout     = flag.Duration("peer-timeout", 0, "per-peer-call budget before degrading to the local store (0 = default 150ms)")
		brokerAddr      = flag.String("broker-addr", "", "serve this metasearcher as a STARTS source on this address (ZBroker-style; a front metasearcher can discover it at /resource)")
		brokerID        = flag.String("broker-id", "broker", "source id this metasearcher publishes under with -broker-addr")
		trace           = flag.Bool("trace", false, "print each q/f search's span tree")
	)
	flag.Parse()
	if *resources == "" {
		fmt.Fprintln(os.Stderr, "startsh: -resources is required")
		os.Exit(2)
	}
	ctx := context.Background()
	hc := starts.NewClient(nil)
	reg := starts.NewMetricsRegistry()
	opts := starts.MetasearcherOptions{
		Timeout: 15 * time.Second, Budget: *budget, Metrics: reg,
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
	mw := []starts.ConnMiddleware{starts.ObserveMiddleware(reg)}
	if *retries > 0 {
		retryBudget := &starts.RetryBudget{}
		mw = append(mw, starts.RetryMiddleware(starts.RetryPolicy{MaxAttempts: *retries + 1}, retryBudget))
	}
	// The distributed cache tier: per-source results live in a query
	// cache sharded across the -peers ring, outermost in the chain so a
	// hit (local or remote) skips retries and the wire entirely. This
	// shell serves its own ring share on -debug-addr (see below).
	var ps *starts.PeerStore
	if *peers != "" {
		self := *peerSelf
		if self == "" && *debugAddr != "" {
			self = "http://" + *debugAddr
		}
		ps = starts.NewPeerStore(starts.PeerStoreConfig{
			Self:     self,
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
	for _, url := range splitList(*resources) {
		conns, err := hc.Discover(ctx, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "startsh: discovering %s: %v\n", url, err)
			os.Exit(1)
		}
		for _, c := range conns {
			ms.Add(starts.ChainConn(c, mw...))
		}
	}
	if err := ms.Harvest(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "startsh: harvesting: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("harvested %d sources; type help for commands\n", len(ms.SourceIDs()))

	// Warm start: replay the previous session's workload through the
	// cache so this session's repeated queries hit from the first request.
	if *warmFile != "" {
		if entries, err := starts.LoadWorkloadFile(*warmFile); err != nil {
			if !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "startsh: loading warm file: %v\n", err)
				os.Exit(1)
			}
		} else if len(entries) > 0 {
			stats, err := ms.Warm(ctx, entries, *warmConcurrency)
			if err != nil {
				fmt.Fprintf(os.Stderr, "startsh: warming: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("warm start: %s\n", stats)
		}
	}

	// Periodic workload snapshots: a crash loses at most -warm-interval
	// of the hot set instead of the whole session.
	var saverDone <-chan struct{}
	saveCtx, stopSaver := context.WithCancel(ctx)
	defer stopSaver()
	if *warmFile != "" {
		saverDone = ms.StartWorkloadSaver(saveCtx, *warmFile, *warmInterval)
	}
	if *debugAddr != "" {
		// With a peer store, the debug listener doubles as this node's
		// peer-wire endpoint: its ring share is served right next to the
		// /debug/peers health view.
		var extra []starts.DebugRoute
		if ps != nil {
			ph := starts.NewPeerHandler(ps)
			for _, pattern := range []string{
				"GET /peer/cache/{key}", "PUT /peer/cache/{key}",
				"DELETE /peer/cache/{key}", "GET /peer/len",
			} {
				extra = append(extra, starts.DebugRoute{Pattern: pattern, Handler: ph})
			}
			extra = append(extra, starts.DebugRoute{Pattern: "GET /debug/peers", Handler: ps.DebugHandler()})
		}
		go func() {
			if err := http.ListenAndServe(*debugAddr, ms.DebugHandler(extra...)); err != nil {
				fmt.Fprintf(os.Stderr, "startsh: debug server: %v\n", err)
			}
		}()
		fmt.Printf("debug endpoints on http://%s/metrics /debug/workload /debug/dispatch\n", *debugAddr)
		if ps != nil {
			fmt.Printf("peer cache tier: %s, health on http://%s/debug/peers\n", ps.Ring(), *debugAddr)
		}
	}
	if *brokerAddr != "" {
		broker, err := ms.NewBroker(*brokerID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "startsh: %v\n", err)
			os.Exit(1)
		}
		cs := starts.NewConnServer(broker, "http://"+*brokerAddr, starts.WithServerMetrics(reg))
		go func() {
			if err := http.ListenAndServe(*brokerAddr, cs); err != nil {
				fmt.Fprintf(os.Stderr, "startsh: broker server: %v\n", err)
			}
		}()
		fmt.Printf("publishing this metasearcher as source %q at http://%s/resource\n", *brokerID, *brokerAddr)
	}

	sh := &shell{ms: ms, ctx: ctx, br: br, reg: reg, trace: *trace}
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("starts> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			break
		}
		if line != "" {
			sh.dispatch(line)
		}
		fmt.Print("starts> ")
	}
	fmt.Println()
	if saverDone != nil {
		// Stopping the saver triggers its final save; wait for it so the
		// session's last queries make it into the warm file.
		stopSaver()
		<-saverDone
	}
}

type shell struct {
	ms    *starts.Metasearcher
	ctx   context.Context
	br    *starts.Breaker
	reg   *starts.MetricsRegistry
	trace bool
}

func (s *shell) dispatch(line string) {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		fmt.Println("sources | meta <id> | summary <id> | select <ranking> | q <ranking> | qs <ranking> | f <filter> | stats | quit")
	case "sources":
		for _, id := range s.ms.SourceIDs() {
			md, _, ok := s.ms.Harvested(id)
			if !ok {
				fmt.Printf("  %s (not harvested)\n", id)
				continue
			}
			fmt.Printf("  %-24s parts=%-2s ranker=%-8s %s\n", id, md.QueryParts, md.RankingAlgorithmID, md.SourceName)
		}
	case "meta":
		md, _, ok := s.ms.Harvested(rest)
		if !ok {
			fmt.Printf("unknown source %q\n", rest)
			return
		}
		data, err := md.Marshal()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		os.Stdout.Write(data)
	case "summary":
		_, sum, ok := s.ms.Harvested(rest)
		if !ok {
			fmt.Printf("unknown source %q\n", rest)
			return
		}
		fmt.Printf("documents %d, vocabulary %d terms, stemmed %v, field-qualified %v\n",
			sum.NumDocs, sum.TotalTerms(), sum.Stemming, sum.FieldsQualified)
	case "select":
		q, err := rankingQuery(rest)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		var infos []gloss.SourceInfo
		for _, id := range s.ms.SourceIDs() {
			md, sum, _ := s.ms.Harvested(id)
			infos = append(infos, gloss.SourceInfo{ID: id, Summary: sum, Meta: md})
		}
		for _, r := range (gloss.VSum{}).Rank(q, infos) {
			fmt.Printf("  %-24s %.1f\n", r.ID, r.Goodness)
		}
	case "q", "qs", "f":
		var q *starts.Query
		var err error
		if cmd == "f" {
			q = starts.NewQuery()
			q.Filter, err = starts.ParseFilter(rest)
		} else {
			q, err = rankingQuery(rest)
		}
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		q.MaxResults = 10
		var tr starts.Trace
		var sopts []starts.SearchOption
		if s.trace {
			sopts = append(sopts, starts.WithTrace(&tr))
		}
		var ans *starts.Answer
		if cmd == "qs" {
			// Streamed: each document prints the moment its merged rank is
			// certain, before the slowest source has answered.
			ans, err = s.ms.SearchStream(s.ctx, q, func(ev starts.StreamEvent) error {
				for i, d := range ev.Docs {
					fmt.Printf("%2d. %8.3f  %-55s %v\n", ev.Rank+i+1, d.RawScore, clip(d.Title(), 55), d.Sources)
				}
				return nil
			}, sopts...)
		} else {
			ans, err = s.ms.Search(s.ctx, q, sopts...)
		}
		if s.trace {
			fmt.Print(tr.Snapshot().Tree())
		}
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("contacted %v\n", ans.Contacted)
		if ans.Degraded.Any() {
			fmt.Printf("degraded: %s\n", ans.Degraded)
		}
		if cmd != "qs" {
			for i, d := range ans.Documents {
				fmt.Printf("%2d. %8.3f  %-55s %v\n", i+1, d.RawScore, clip(d.Title(), 55), d.Sources)
			}
		}
	case "stats":
		// One consistent snapshot (IDs and stats under a single lock
		// acquisition) rather than a racy per-source Stats loop.
		for _, e := range s.ms.StatsSnapshot() {
			circuit := ""
			if s.br != nil {
				circuit = " circuit=" + s.br.State(e.ID).String()
			}
			if !e.Queried {
				fmt.Printf("  %-24s (no queries yet)%s\n", e.ID, circuit)
				continue
			}
			fmt.Printf("  %-24s queries=%d failures=%d mean-latency=%v%s\n",
				e.ID, e.Stats.Queries, e.Stats.Failures, e.Stats.MeanLatency.Round(time.Millisecond), circuit)
		}
		for _, d := range s.ms.DispatchStats() {
			fmt.Printf("  %-24s dispatch: submitted=%d batched=%d inflight=%d/%d queued=%d/%d shed=%d refused=%d\n",
				d.Source, d.Submitted, d.Batched, d.Inflight, d.Workers, d.Depth, d.QueueCap, d.QueueFull, d.Refused)
		}
		fmt.Print(s.reg.Render())
	default:
		fmt.Printf("unknown command %q (try help)\n", cmd)
	}
}

func rankingQuery(src string) (*starts.Query, error) {
	q := starts.NewQuery()
	r, err := starts.ParseRanking(src)
	if err != nil {
		return nil, err
	}
	q.Ranking = r
	return q, nil
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n-3] + "..."
	}
	return s
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
