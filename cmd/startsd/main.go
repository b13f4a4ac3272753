// Command startsd serves a STARTS resource over HTTP: a set of synthetic
// sources generated by the corpus package (or loaded from a JSON corpus
// file written by startsgen), each behind its own engine profile.
//
//	startsd -addr :8080 -sources 4 -docs 200 -seed 42
//	startsd -addr :8080 -corpus corpus.json
//
// Endpoints: /resource, /sources/{id}/metadata, /sources/{id}/summary,
// /sources/{id}/sample, POST /sources/{id}/query — plus GET /metrics
// (Prometheus-style text) and GET /debug/last-traces (recent per-query
// decode/search/encode traces).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"starts"
	"starts/internal/corpus"
	"starts/internal/corpusio"
	"starts/internal/engine"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		sources = flag.Int("sources", 4, "number of synthetic sources")
		docs    = flag.Int("docs", 200, "documents per source")
		seed    = flag.Int64("seed", 42, "corpus generation seed")
		overlap = flag.Float64("overlap", 0.1, "fraction of docs duplicated into the next source")
		file    = flag.String("corpus", "", "load corpus from a startsgen JSON file instead of generating")
		mixed   = flag.Bool("mixed-engines", true, "alternate engine profiles across sources")

		maxInflight     = flag.Int("max-inflight", 0, "bound concurrent query evaluations; excess requests are shed with a fast 503 (0 = unbounded)")
		inflightTimeout = flag.Duration("inflight-timeout", 0, "how long a query waits for an evaluation slot before the 503 (0 = 250ms default)")

		faultRate     = flag.Float64("fault-rate", 0, "inject faults: probability a request gets a 503")
		faultHang     = flag.Float64("fault-hang", 0, "inject faults: probability a request hangs until the client gives up")
		faultTruncate = flag.Float64("fault-truncate", 0, "inject faults: probability a response body is truncated mid-object")
		faultGarbage  = flag.Float64("fault-garbage", 0, "inject faults: probability a response body is garbage")
		faultLatency  = flag.Duration("fault-latency", 0, "inject faults: added latency per request")
		faultJitter   = flag.Duration("fault-jitter", 0, "inject faults: extra uniform random latency per request")
		faultSeed     = flag.Int64("fault-seed", 1, "fault-injection seed")
		faultFlapUp   = flag.Int("fault-flap-up", 0, "inject faults: serve N requests, then fail fault-flap-down requests, repeating")
		faultFlapDown = flag.Int("fault-flap-down", 0, "inject faults: failing span of the flap cycle")
	)
	flag.Parse()

	var universe *corpus.Generated
	if *file != "" {
		var err error
		universe, err = corpusio.Load(*file)
		if err != nil {
			log.Fatalf("startsd: %v", err)
		}
	} else {
		universe = corpus.Generate(corpus.Config{
			Seed: *seed, NumSources: *sources, DocsPerSource: *docs, Overlap: *overlap,
		})
	}

	res := starts.NewResource()
	for i, spec := range universe.Sources {
		cfg := engine.NewVectorConfig()
		if *mixed {
			switch i % 3 {
			case 1:
				cfg.Scorer = engine.TopK{}
			case 2:
				cfg = engine.NewBooleanConfig()
			}
		}
		eng, err := engine.NewWithDocs(cfg, spec.Docs, 0)
		if err != nil {
			log.Fatalf("startsd: indexing %s: %v", spec.ID, err)
		}
		src, err := starts.NewSource(spec.ID, eng)
		if err != nil {
			log.Fatalf("startsd: %v", err)
		}
		if err := res.Add(src); err != nil {
			log.Fatalf("startsd: %v", err)
		}
		fmt.Fprintf(os.Stderr, "source %-24s %4d docs  engine %s/%s\n",
			spec.ID, len(spec.Docs), cfg.QueryParts, cfg.Scorer.ID())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("startsd: %v", err)
	}
	base := "http://" + ln.Addr().String()
	var handler http.Handler = starts.NewServer(res, base, starts.WithServerMaxInflight(*maxInflight, *inflightTimeout))
	if *faultRate > 0 || *faultHang > 0 || *faultTruncate > 0 || *faultGarbage > 0 ||
		*faultLatency > 0 || *faultJitter > 0 || (*faultFlapUp > 0 && *faultFlapDown > 0) {
		handler = starts.NewFaultMiddleware(starts.FaultConfig{
			Seed: *faultSeed, ErrorRate: *faultRate, HangRate: *faultHang,
			TruncateRate: *faultTruncate, GarbageRate: *faultGarbage,
			Latency: *faultLatency, Jitter: *faultJitter,
			FlapUp: *faultFlapUp, FlapDown: *faultFlapDown,
		}, handler)
		fmt.Fprintln(os.Stderr, "fault injection enabled")
	}
	fmt.Printf("serving STARTS resource at %s/resource\n", base)
	fmt.Printf("metrics at %s/metrics, recent query traces at %s/debug/last-traces\n", base, base)
	log.Fatal(http.Serve(ln, handler))
}
