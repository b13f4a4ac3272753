// Command metasearch is the STARTS metasearcher: it discovers resources
// served over HTTP, harvests their sources' metadata and content
// summaries, and runs GlOSS source selection, per-source query
// translation, concurrent evaluation and rank merging for one search given
// by -filter and/or -ranking:
//
//	metasearch -resources http://127.0.0.1:8080/resource \
//	           -ranking 'list((body-of-text "database"))' -max-sources 3
//
// Given neither, it runs the commands of an interactive shell on stdin:
//
//	sources | meta <id> | summary <id>       the harvested sources
//	select <ranking>                         rank sources (the -select selector)
//	q <ranking> | qs <ranking> | f <filter>  search; qs streams, as -stream does
//	stats | help | quit                      circuits, dispatch queues and metrics
//
// -warm-file replays the previous run's workload through the cache on
// startup and saves this run's back every -warm-interval and on exit.
// -debug-addr serves /metrics, /debug/workload and /debug/dispatch.
// -broker-addr publishes the
// metasearcher itself as a STARTS source (ZBroker-style) that a front
// metasearcher discovers at /resource. -trace prints each search's span
// tree and a metrics snapshot to stderr.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"starts"
	"starts/internal/gloss"
	"starts/internal/merge"
)

func main() {
	var (
		resources  = flag.String("resources", "", "comma-separated resource URLs")
		filter     = flag.String("filter", "", "filter expression (with or without -ranking: one search, no shell)")
		ranking    = flag.String("ranking", "", "ranking expression (with or without -filter: one search, no shell)")
		selectName = flag.String("select", "vsum", "source selector: vsum | vmax | bgloss | random")
		mergeName  = flag.String("merge", "term-stats", "merge strategy: term-stats | term-stats-local | scaled | raw | round-robin")
		maxSources = flag.Int("max-sources", 0, "contact at most N sources (0 = all promising)")
		max        = flag.Int("max", 10, "maximum number of merged documents")
		verify     = flag.Bool("verify", false, "post-filter results against dropped query parts")
		timeout    = flag.Duration("timeout", 15*time.Second, "deadline for every source call of a harvest or a fan-out, from the step's start")

		budget          = flag.Duration("budget", 0, "total deadline for each search, harvesting included (0 = none)")
		retries         = flag.Int("retries", 0, "retry each source call up to N extra times with exponential backoff")
		retryBase       = flag.Duration("retry-base", 100*time.Millisecond, "first retry backoff (doubles per retry, jittered)")
		breakerAfter    = flag.Int("breaker-after", 0, "open a source's circuit after N consecutive failures (0 = no breaker)")
		breakerCooldown = flag.Duration("breaker-cooldown", 10*time.Second, "how long an open circuit sheds traffic before probing")
		cacheSize       = flag.Int("cache-size", 0, "cache merged answers for repeated queries, at most N entries (0 = no cache)")
		cacheTTL        = flag.Duration("cache-ttl", time.Minute, "fallback freshness for cached answers whose sources declare no DateExpires/DateChanged (expired entries serve stale while a refresh runs)")
		maxInflight     = flag.Int("max-inflight", 0, "bound concurrent cache misses, each running its own fan-out; excess queries are shed with a fast error (0 = unbounded; implies caching)")
		warmFile        = flag.String("warm-file", "", "workload file: replay it through the cache on startup, and save this run's workload back to it (implies caching)")
		warmConcurrency = flag.Int("warm-concurrency", 0, "bound concurrent warm-start replays (0 = default)")
		warmInterval    = flag.Duration("warm-interval", time.Minute, "snapshot the workload to -warm-file this often (and once on exit)")
		faultRate       = flag.Float64("fault-rate", 0, "inject client-side faults: per-call error probability (testing)")
		faultLatency    = flag.Duration("fault-latency", 0, "inject client-side faults: added per-call latency (testing)")
		faultSeed       = flag.Int64("fault-seed", 1, "fault-injection seed")
		srcConcurrency  = flag.Int("source-concurrency", 0, "parallel wire calls per source, one sub-query each (0 = default 16)")
		srcQueue        = flag.Int("source-queue", 0, "queued batches per source before shedding with a fast error (0 = default 64)")
		debugAddr       = flag.String("debug-addr", "", "serve /metrics, /debug/workload and /debug/dispatch on this address (e.g. 127.0.0.1:6060)")
		brokerAddr      = flag.String("broker-addr", "", "serve this metasearcher as a STARTS source on this address (ZBroker-style; a front metasearcher can discover it at /resource)")
		brokerID        = flag.String("broker-id", "broker", "source id this metasearcher publishes under with -broker-addr")
		stream          = flag.Bool("stream", false, "print documents as their merged rank becomes certain, instead of after the slowest source")
		trace           = flag.Bool("trace", false, "print each search's span tree and a metrics snapshot to stderr")
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

	// 1. Options, cache and breaker.
	reg := starts.NewMetricsRegistry()
	opts := starts.MetasearcherOptions{
		Selector: sel, Merger: mrg, MaxSources: *maxSources,
		Timeout: *timeout, PostFilter: *verify, Budget: *budget,
		Metrics:           reg,
		SourceConcurrency: *srcConcurrency, QueueDepth: *srcQueue,
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

	// 2. The per-conn stack, innermost first: faults are injected at the
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
		mw = append(mw, starts.RetryMiddleware(starts.RetryPolicy{
			MaxAttempts: *retries + 1, BaseDelay: *retryBase,
		}, &starts.RetryBudget{}))
	}

	// 3. Discover, then harvest.
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

	// 4. Warm start: replay the previous run's workload through the cache
	// so this run's repeated queries hit from the first request.
	if *warmFile != "" {
		if entries, err := starts.LoadWorkloadFile(*warmFile); err != nil {
			if !os.IsNotExist(err) {
				log.Fatalf("metasearch: loading warm file: %v", err)
			}
		} else if len(entries) > 0 {
			stats, err := ms.Warm(ctx, entries, *warmConcurrency)
			if err != nil {
				log.Fatalf("metasearch: warming: %v", err)
			}
			fmt.Fprintf(os.Stderr, "warm start: %s\n", stats)
		}
	}

	// 5. Workload snapshots every -warm-interval and once on exit: a crash
	// loses at most one interval of the hot set instead of the whole run.
	var saverDone <-chan struct{}
	saveCtx, stopSaver := context.WithCancel(ctx)
	defer stopSaver()
	if *warmFile != "" {
		saverDone = ms.StartWorkloadSaver(saveCtx, *warmFile, *warmInterval)
	}

	// 6. The debug and broker listeners.
	if *debugAddr != "" {
		serve("debug", *debugAddr, ms.DebugHandler())
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/metrics /debug/workload /debug/dispatch\n", *debugAddr)
	}
	if *brokerAddr != "" {
		broker, err := ms.NewBroker(*brokerID)
		if err != nil {
			log.Fatalf("metasearch: %v", err)
		}
		serve("broker", *brokerAddr, starts.NewConnServer(broker, "http://"+*brokerAddr, starts.WithServerMetrics(reg)))
		fmt.Fprintf(os.Stderr, "publishing this metasearcher as source %q at http://%s/resource\n", *brokerID, *brokerAddr)
	}

	// 7. One search, or the shell.
	c := &cli{ctx: ctx, ms: ms, sel: sel, mrg: mrg, br: br, reg: reg, trace: *trace, max: *max}
	if *filter != "" || *ranking != "" {
		q, err := c.query(*filter, *ranking)
		if err == nil {
			err = c.search(q, *stream)
		}
		if err != nil {
			log.Fatalf("metasearch: %v", err)
		}
	} else {
		c.shell(os.Stdin)
	}
	if saverDone != nil {
		// Stopping the saver triggers its final save; wait for it so the
		// run's last queries make it into the warm file.
		stopSaver()
		<-saverDone
	}
}

// serve runs one listener in the background for the process's lifetime.
func serve(name, addr string, h http.Handler) {
	go func() {
		if err := http.ListenAndServe(addr, h); err != nil {
			fmt.Fprintf(os.Stderr, "metasearch: %s server: %v\n", name, err)
		}
	}()
}

// cli is what the one-shot search and the shell's commands share.
type cli struct {
	ctx   context.Context
	ms    *starts.Metasearcher
	sel   starts.Selector
	mrg   starts.MergeStrategy
	br    *starts.Breaker
	reg   *starts.MetricsRegistry
	trace bool
	max   int
}

// query parses a filter and a ranking expression, either possibly empty,
// into one query for at most -max documents.
func (c *cli) query(filter, ranking string) (*starts.Query, error) {
	q := starts.NewQuery()
	q.MaxResults = c.max
	var err error
	if filter != "" {
		if q.Filter, err = starts.ParseFilter(filter); err != nil {
			return nil, err
		}
	}
	if ranking != "" {
		if q.Ranking, err = starts.ParseRanking(ranking); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// search runs one query and prints its answer to stdout and how it fell
// short to stderr. Streamed, each document prints the moment its merged
// rank can no longer change, so the fast sources' head of the answer
// shows while slower ones are still waited on.
func (c *cli) search(q *starts.Query, stream bool) error {
	var tr starts.Trace
	var sopts []starts.SearchOption
	if c.trace {
		sopts = append(sopts, starts.WithTrace(&tr))
	}
	var answer *starts.Answer
	var err error
	if stream {
		answer, err = c.ms.SearchStream(c.ctx, q, func(ev starts.StreamEvent) error {
			printDocs(ev.Rank, ev.Docs)
			return nil
		}, sopts...)
	} else {
		answer, err = c.ms.Search(c.ctx, q, sopts...)
	}
	if c.trace {
		fmt.Fprint(os.Stderr, tr.Snapshot().Tree())
		fmt.Fprint(os.Stderr, c.reg.Render())
	}
	if err != nil {
		return err
	}
	if stream {
		fmt.Println()
	}
	fmt.Printf("selection (%s):", c.sel.Name())
	for _, r := range answer.Selected {
		fmt.Printf(" %s=%.1f", r.ID, r.Goodness)
	}
	fmt.Printf("\ncontacted: %v\nmerge: %s\n", answer.Contacted, c.mrg.Name())
	if !stream {
		fmt.Println()
		printDocs(0, answer.Documents)
	}
	report(os.Stderr, answer)
	return nil
}

// printDocs prints documents ranked from rank+1 on.
func printDocs(rank int, docs []*starts.ResultDocument) {
	for i, d := range docs {
		fmt.Printf("%2d. %-60s %v\n", rank+i+1, d.Title(), d.Sources)
		fmt.Printf("    %s\n", d.Linkage())
	}
}

// report prints how an answer fell short: its degradation, then one line
// per failed or lossily translated source — the contacted sources in
// contact order, then the rest (harvest failures, open circuits) by id.
func report(w io.Writer, answer *starts.Answer) {
	if answer.Degraded.Any() {
		fmt.Fprintf(w, "degraded answer: %s\n", answer.Degraded)
	}
	var rest []string
	for id := range answer.PerSource {
		if !slices.Contains(answer.Contacted, id) {
			rest = append(rest, id)
		}
	}
	sort.Strings(rest)
	// Clipped: a cached answer is shared, so never append into its slices.
	for _, id := range append(slices.Clip(answer.Contacted), rest...) {
		switch oc := answer.PerSource[id]; {
		case oc.Err != nil:
			fmt.Fprintf(w, "source %s failed: %v\n", id, oc.Err)
		case oc.Report != nil && !oc.Report.Clean():
			fmt.Fprintf(w, "source %s: lossy translation (%d dropped terms, filter dropped %v, ranking dropped %v)\n",
				id, len(oc.Report.DroppedTerms), oc.Report.DroppedFilter, oc.Report.DroppedRanking)
		}
	}
}

// shell runs the commands the package comment lists, read from in, until
// quit or the end of the input.
func (c *cli) shell(in io.Reader) {
	fmt.Print("type help for commands\nstarts> ")
	for scanner := bufio.NewScanner(in); scanner.Scan(); fmt.Print("starts> ") {
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			break
		}
		if line != "" {
			c.command(line)
		}
	}
	fmt.Println()
}

func (c *cli) command(line string) {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		fmt.Println("sources | meta <id> | summary <id> | select <ranking> | q <ranking> | qs <ranking> | f <filter> | stats | quit")
	case "sources":
		for _, id := range c.ms.SourceIDs() {
			md, _, ok := c.ms.Harvested(id)
			if !ok {
				fmt.Printf("  %s (not harvested)\n", id)
				continue
			}
			fmt.Printf("  %-24s parts=%-2s ranker=%-8s %s\n", id, md.QueryParts, md.RankingAlgorithmID, md.SourceName)
		}
	case "meta", "summary":
		md, sum, ok := c.ms.Harvested(rest)
		switch {
		case !ok:
			fmt.Printf("unknown source %q\n", rest)
		case cmd == "summary":
			fmt.Printf("documents %d, vocabulary %d terms, stemmed %v, field-qualified %v\n",
				sum.NumDocs, sum.TotalTerms(), sum.Stemming, sum.FieldsQualified)
		default:
			data, err := md.Marshal()
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			os.Stdout.Write(data)
		}
	case "select":
		q, err := c.query("", rest)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		var infos []gloss.SourceInfo
		for _, id := range c.ms.SourceIDs() {
			if md, sum, ok := c.ms.Harvested(id); ok {
				infos = append(infos, gloss.SourceInfo{ID: id, Summary: sum, Meta: md})
			}
		}
		for _, r := range c.sel.Rank(q, infos) {
			fmt.Printf("  %-24s %.1f\n", r.ID, r.Goodness)
		}
	case "q", "qs", "f":
		filter, ranking := "", rest
		if cmd == "f" {
			filter, ranking = rest, ""
		}
		q, err := c.query(filter, ranking)
		if err == nil {
			err = c.search(q, cmd == "qs")
		}
		if err != nil {
			fmt.Println("error:", err)
		}
	case "stats":
		if c.br != nil {
			for _, id := range c.ms.SourceIDs() {
				fmt.Printf("  %-24s circuit=%s\n", id, c.br.State(id))
			}
		}
		for _, d := range c.ms.DispatchStats() {
			fmt.Printf("  %-24s dispatch: submitted=%d batched=%d inflight=%d/%d queued=%d/%d shed=%d\n",
				d.Source, d.Submitted, d.Batched, d.Inflight, d.Workers, d.Depth, d.QueueCap, d.QueueFull)
		}
		fmt.Print(c.reg.Render())
	default:
		fmt.Printf("unknown command %q (try help)\n", cmd)
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
