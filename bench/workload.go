package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/corpus"
	"starts/internal/engine"
	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/server"
	"starts/internal/source"
)

// workload is one fixed traffic shape over one fixed fleet. The values
// are the benchmark's definition: later changes are compared on them,
// so they change only in a benchmark-only PR (see README.md).
type workload struct {
	Name string `json:"name"`
	// Fleet.
	Sources    int    `json:"sources"`
	Docs       int    `json:"docs_per_source"`
	BodyWords  int    `json:"body_words"`
	VocabWords int    `json:"vocab_words"`
	Engines    string `json:"engines"`
	engine     func(i int) engine.Config
	// Broker.
	MaxSources   int `json:"max_sources"`
	CacheEntries int `json:"cache_entries"`
	// Traffic.
	Pool        int     `json:"pool"`
	FilterShare float64 `json:"filter_share"`
	Draw        string  `json:"draw"` // cycle | zipf
	Clients     int     `json:"clients,omitempty"`
	RateQPS     float64 `json:"rate_qps,omitempty"` // > 0: open loop over HTTP
	DelayMS     int     `json:"delay_ms,omitempty"`
	StragglerMS int     `json:"straggler_ms,omitempty"`
	Straggler   int     `json:"straggler_source,omitempty"`
	// CPUCap fails an open-loop run whose process used more than this
	// share of the two cores: above it, latency stops being RTT-bound.
	CPUCap float64 `json:"cpu_cap,omitempty"`
}

func (w *workload) wan() bool { return w.RateQPS > 0 }

func vector(s engine.Scorer) engine.Config {
	c := engine.NewVectorConfig()
	c.Scorer = s
	return c
}

// mixedFleet is the heterogeneous 8-source fleet of the two cache
// workloads: three scorers in rotation, one filter-only source (ranking
// queries reach it as a synthesized OR filter) and one ranking-only
// source (filters sent to it are dropped by translation).
func mixedFleet(i int) engine.Config {
	switch i {
	case 6:
		return engine.NewBooleanConfig()
	case 7:
		c := engine.NewVectorConfig()
		c.QueryParts = meta.PartsRanking
		return c
	}
	return vector([]engine.Scorer{engine.TFIDF{}, engine.TopK{}, engine.RawTF{}}[i%3])
}

var workloads = []*workload{
	{
		Name: "wan-stream", Sources: 6, Docs: 2000, BodyWords: 80, VocabWords: 400,
		Engines: "4 tf-idf, 1 top-scaled (#4), 1 boolean (#5)",
		engine: func(i int) engine.Config {
			switch i {
			case 4:
				return vector(engine.TopK{})
			case 5:
				return engine.NewBooleanConfig()
			}
			return vector(engine.TFIDF{})
		},
		MaxSources: 4, Pool: 4000, FilterShare: 0.3, Draw: "cycle",
		RateQPS: 80, DelayMS: 25, StragglerMS: 100, Straggler: 2, CPUCap: 0.60,
	},
	{
		Name: "big-source", Sources: 2, Docs: 20000, BodyWords: 40, VocabWords: 2000,
		Engines: "2 tf-idf", engine: func(int) engine.Config { return vector(engine.TFIDF{}) },
		MaxSources: 2, Pool: 8000, FilterShare: 0.4, Draw: "cycle", Clients: 2,
	},
	{
		Name: "cache-churn", Sources: 8, Docs: 500, BodyWords: 80, VocabWords: 400,
		Engines: "tf-idf/top-scaled/raw-tf in rotation, 1 boolean (#6), 1 ranking-only (#7)", engine: mixedFleet,
		MaxSources: 3, CacheEntries: 1024, Pool: 4096, FilterShare: 0.3, Draw: "cycle", Clients: 2,
	},
	{
		Name: "cache-hot", Sources: 8, Docs: 500, BodyWords: 80, VocabWords: 400,
		Engines: "as cache-churn", engine: mixedFleet,
		MaxSources: 3, CacheEntries: 1024, Pool: 256, FilterShare: 0.3, Draw: "zipf", Clients: 2,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// genQueries builds n distinct queries (distinct under the cache's own
// canonical form) over the universe's topic vocabularies. Each ranks by
// 1-3 body terms of one topic. A pure ranking draws every term either
// Zipf-common or uniformly rare. filterShare of the queries also carry a
// filter (one term, or two joined by and / or / and-not / prox); all their
// terms come from the middle band of the topic's Zipf order —
// discriminating terms, as users filter on — because a filtered query is
// scored by the exhaustive walk, whose cost is the terms' posting counts:
// with a head-of-Zipf term it is 100 ms at 30 000 documents, 300 times the
// median query, and a handful of those decide a run's mean.
//
// Query k's shape (how many terms, whether and how it is filtered) is
// read off point k of a fixed low-discrepancy sequence, and its topic and
// words off a second one that the seed shifts — not off independent random
// draws. Every seed gives different queries, but position k of every pool
// has the same shape, any run of consecutive positions covers shapes and
// term frequencies evenly, and so does every pool. A query's cost spans
// three decades with its shape and its terms' frequencies: with
// independent draws the mean cost of a 4 000-query pool moved by 6 % from
// seed to seed, more than the changes the benchmark exists to detect.
func genQueries(rng *rand.Rand, topics []corpus.Topic, n int, filterShare float64) []*query.Query {
	seen := make(map[string]bool, n)
	out := make([]*query.Query, 0, n)
	term := func(w string) string { return fmt.Sprintf(`(body-of-text "%s")`, w) }
	// Every topic's vocabulary has the same size.
	vocab := len(topics[0].Words)
	lo, hi := vocab/40, vocab/4
	common, band := zipfOver(vocab), zipfOver(hi-lo)
	// Coordinates of a shape point and of a word point.
	const dTerms, dFilter, dOp = 0, 1, 2
	const dTopic, dTerm0, dFilterA, dFilterB = 0, 1, 4, 5
	shapes := newLowDiscrepancy(nil, 3)
	words := newLowDiscrepancy(rng, 6)
	shape := shapes.next()
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 200*n {
			fatalf("query generator: only %d distinct queries of %d after %d attempts", len(out), n, attempts)
		}
		x := words.next()
		topic := topics[int(x[dTopic]*float64(len(topics)))].Words
		filtered := shape[dFilter] < filterShare
		var terms []string
		for i := 0; i < 1+int(shape[dTerms]*3); i++ {
			// Unfiltered: the lower half of the coordinate picks by Zipf,
			// the upper half uniformly.
			u := x[dTerm0+i]
			rank := int((2*u - 1) * float64(vocab))
			switch {
			case filtered:
				rank = lo + band.rank(u)
			case u < 0.5:
				rank = common.rank(2 * u)
			}
			if t := term(topic[rank]); !slices.Contains(terms, t) {
				terms = append(terms, t)
			}
		}
		q := query.New()
		var err error
		if q.Ranking, err = query.ParseRanking("list(" + strings.Join(terms, " ") + ")"); err != nil {
			fatalf("query generator: %v", err)
		}
		if filtered {
			a, b := term(topic[lo+band.rank(x[dFilterA])]), term(topic[lo+band.rank(x[dFilterB])])
			f := a
			if op := int(shape[dOp] * 5); op > 0 && a != b {
				f = "(" + a + " " + []string{"and", "or", "and-not", "prox[3,F]"}[op-1] + " " + b + ")"
			}
			if q.Filter, err = query.ParseFilter(f); err != nil {
				fatalf("query generator: %v", err)
			}
		}
		if key := qcache.Canonical(q); !seen[key] {
			seen[key] = true
			out = append(out, q)
			shape = shapes.next()
		}
	}
	return out
}

// lowDiscrepancy is the additive-recurrence sequence x_k = frac(x_0 + k·α)
// with α_j = g^-(j+1), g the root of g^(d+1) = g + 1 (the golden ratio
// for d = 1), started at a random point x_0, or at 0 without a generator.
type lowDiscrepancy struct{ x, alpha []float64 }

func newLowDiscrepancy(rng *rand.Rand, d int) *lowDiscrepancy {
	g := 2.0
	for i := 0; i < 32; i++ {
		g = math.Pow(1+g, 1/float64(d+1))
	}
	s := &lowDiscrepancy{x: make([]float64, d), alpha: make([]float64, d)}
	for j := range s.x {
		if rng != nil {
			s.x[j] = rng.Float64()
		}
		s.alpha[j] = math.Pow(1/g, float64(j+1))
	}
	return s
}

func (s *lowDiscrepancy) next() []float64 {
	for j := range s.x {
		s.x[j] += s.alpha[j]
		s.x[j] -= math.Floor(s.x[j])
	}
	return s.x
}

// zipfDist samples ranks 0..n-1 with probability proportional to
// 1/(rank+1): Zipf with exponent 1, which math/rand's own Zipf excludes.
type zipfDist struct{ cum []float64 }

func zipfOver(n int) *zipfDist {
	z := &zipfDist{cum: make([]float64, n)}
	acc := 0.0
	for i := range z.cum {
		acc += 1 / float64(i+1)
		z.cum[i] = acc
	}
	return z
}

// rank maps a uniform u in [0,1) to a rank.
func (z *zipfDist) rank(u float64) int {
	return min(sort.SearchFloat64s(z.cum, u*z.cum[len(z.cum)-1]), len(z.cum)-1)
}

// drawOrder precomputes one client's query order, so the timed loop only
// indexes a slice. "cycle" deals the pool out to the clients like cards
// and walks each hand in pool order, which is low-discrepancy order: every
// query of the pool runs equally often and every stretch of a client's
// traffic is a balanced mix. With the hand larger than the cache, every
// query is a miss, a fill and an eviction, exactly and on every seed.
// "zipf" draws pool positions by popularity.
func (w *workload) drawOrder(rng *rand.Rand, clientIdx, clients int) []int32 {
	if w.Draw == "cycle" {
		order := make([]int32, 0, w.Pool/clients+1)
		for at := clientIdx; at < w.Pool; at += clients {
			order = append(order, int32(at))
		}
		return order
	}
	z := zipfOver(w.Pool)
	order := make([]int32, 1<<16)
	for i := range order {
		order[i] = int32(z.rank(rng.Float64()))
	}
	return order
}

// fleet is the generated universe indexed into live sources, plus what
// building it cost.
type fleet struct {
	topics   []corpus.Topic
	sources  []*source.Source
	docs     int
	buildDur time.Duration // index construction only
	heapGrew uint64        // HeapAlloc growth across generation and construction; traced pass only
}

// buildFleet generates the workload's universe from the seed and indexes
// it. exhaustive pins every engine to the full scoring walk: the oracle's
// reference fleet.
func buildFleet(w *workload, seed int64, exhaustive bool) *fleet {
	g := corpus.Generate(corpus.Config{
		Seed: seed, NumSources: w.Sources, DocsPerSource: w.Docs,
		BodyWords: w.BodyWords, VocabWords: w.VocabWords,
	})
	f := &fleet{topics: g.Topics}
	start := time.Now()
	for i, spec := range g.Sources {
		cfg := w.engine(i)
		cfg.Exhaustive = exhaustive
		eng, err := engine.NewWithDocs(cfg, spec.Docs, 0)
		if err != nil {
			fatalf("building %s: %v", spec.ID, err)
		}
		src, err := source.New(spec.ID, eng)
		if err != nil {
			fatalf("building %s: %v", spec.ID, err)
		}
		f.sources = append(f.sources, src)
		f.docs += len(spec.Docs)
	}
	f.buildDur = time.Since(start)
	return f
}

// rig is a fleet wired to a broker: the system under test.
type rig struct {
	ms      *core.Metasearcher
	reg     *obs.Registry
	harvest time.Duration
	servers []*http.Server
	idle    interface{ CloseIdleConnections() }
}

func (r *rig) close() {
	r.ms.Close()
	for _, s := range r.servers {
		_ = s.Close() // loopback listeners of this process; nothing to flush
	}
	if r.idle != nil {
		r.idle.CloseIdleConnections()
	}
}

// cacheTTL outlives any run, so entries leave the cache by eviction only.
const cacheTTL = time.Hour

// wire builds the broker over the fleet the way cmd/metasearch wires it
// by default — vGlOSS Sum(0) selection, term-stats merging, each conn
// behind the observe middleware, nothing else — and harvests. In the WAN
// workload every source sits behind its own server.Server on a loopback
// listener and the delay shim. A non-nil tracer adds the measuring shims
// at the four seams (see shims.go).
func wire(w *workload, f *fleet, tr *tracer) *rig {
	r := &rig{reg: obs.NewRegistry()}
	opts := core.Options{
		Selector: gloss.VSum{}, Merger: merge.TermStats{}, MaxSources: w.MaxSources,
		Timeout: 15 * time.Second, Metrics: r.reg,
	}
	if w.CacheEntries > 0 {
		cc := qcache.Config{MaxEntries: w.CacheEntries, TTL: cacheTTL, Metrics: r.reg}
		if tr != nil {
			tr.store = &timedStore{Store: qcache.NewLRUStore(w.CacheEntries, 0, r.reg), tr: tr}
			cc.Store = tr.store
		}
		opts.Cache = qcache.New(cc)
	}
	r.ms = core.New(opts)

	var hc *client.Client
	if w.wan() {
		transport := &http.Transport{ // client.NewClient's own tuning
			MaxIdleConns: 256, MaxIdleConnsPerHost: 32, IdleConnTimeout: 90 * time.Second,
		}
		r.idle = transport
		var rt http.RoundTripper = transport
		if tr != nil {
			rt = &countingTransport{base: transport, tr: tr}
		}
		hc = client.NewClient(&http.Client{Timeout: 30 * time.Second, Transport: rt})
	}
	ctx := context.Background()
	for i, src := range f.sources {
		var leaf leafConn = client.NewLocalConn(src, nil)
		if w.wan() {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatalf("listening: %v", err)
			}
			res := source.NewResource()
			if err := res.Add(src); err != nil {
				fatalf("resource: %v", err)
			}
			base := "http://" + ln.Addr().String()
			delay := time.Duration(w.DelayMS) * time.Millisecond
			if i == w.Straggler {
				delay = time.Duration(w.StragglerMS) * time.Millisecond
			}
			hs := &http.Server{Handler: &delayHandler{
				next: server.New(res, base), delay: delay, source: src.ID(), tr: tr,
			}}
			r.servers = append(r.servers, hs)
			go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed at rig.close
			conns, err := hc.Discover(ctx, base+"/resource")
			if err != nil || len(conns) != 1 {
				fatalf("discovering %s: %d conns, %v", base, len(conns), err)
			}
			leaf = conns[0].(leafConn)
		}
		var conn client.Conn = leaf
		if tr != nil {
			conn = &wireConn{leafConn: leaf, tr: tr}
		}
		r.ms.Add(obs.WrapConn(conn, r.reg))
	}
	start := time.Now()
	if err := r.ms.Harvest(ctx); err != nil {
		fatalf("harvesting: %v", err)
	}
	r.harvest = time.Since(start)
	return r
}
