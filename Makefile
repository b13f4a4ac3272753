# Everything is Go stdlib-only; no tools beyond the go toolchain needed.

GO      ?= go
BINDIR  ?= /tmp/starts-bin

.PHONY: build test vet race lint bench bench-dispatch bench-smoke ab prof-cold prof-wire prof-heap prof-cache prof-build prof-setup prof-search warm soak stress fuzz loc tier1 tier2 check cli clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint fails on unformatted files (gofmt prints their names) and then
# vets; it is the static half of tier2.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench runs every benchmark once with allocation stats; for stable
# numbers (e.g. the SearchCold / SearchCached / SearchWarmed trio in
# EXPERIMENTS.md) drop -benchtime 1x.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x -run '^$$' ./...

# warm runs the warm-start comparison at full benchtime: cold pipeline
# vs steady-state hit vs first repeats after a workload replay (the
# warm-replay-ns metric is the one-time startup cost).
warm:
	$(GO) test -bench 'BenchmarkSearch(Cold|Cached|Warmed)$$' -benchmem -run '^$$' .

# bench-dispatch runs the fan-out benchmarks at full benchtime: the
# dispatched fan-out (concurrent identical queries coalescing at the
# dispatch layer) next to the warm-start trio it is compared against in
# EXPERIMENTS.md X11.
bench-dispatch:
	$(GO) test -bench 'BenchmarkFanoutDispatched' -benchmem -run '^$$' .

# bench-smoke builds and smokes the repository's one benchmark (bench/,
# its own module, which `go build ./... && go test ./...` at the root
# skips): vet proves an internal/ signature change did not break it, and
# the 2-second-phase run proves all four workloads still answer every
# query correctly. The numbers are discarded; `bash bench/run.sh` is the
# measuring run (see bench/README.md).
bench-smoke:
	$(GO) -C bench vet ./...
	bash bench/run.sh -smoke

# ab measures the working tree against PARENT (a git ref) as alternating
# pairs of benchmark runs and prints every metric's medians, IQRs and
# sign-test wins (scripts/ab.sh; its header lists the options ARGS passes
# on, e.g. ARGS='--workload cache-churn --pairs 10 --trace 1').
ab:
	@test -n "$(PARENT)" || { echo "usage: make ab PARENT=<ref> [ARGS='--workload W --pairs N --seconds S --trace 0|1 --seed K']"; exit 2; }
	bash scripts/ab.sh $(PARENT) $(ARGS)

# prof-cold attributes what one cache-missing search allocates, by site:
# BenchmarkColdSearch (internal/core: 8 in-process sources, cache on, every
# query distinct) with every allocation sampled, then the profile's top
# sites by bytes, building and indexing the fleet left out. The binary and
# the profile go to PROFDIR.
PROFDIR ?= /tmp/starts-prof
prof-cold:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench 'BenchmarkColdSearch$$' -benchtime 3000x -memprofilerate 1 \
		-memprofile $(PROFDIR)/cold.mem -o $(PROFDIR)/core.test ./internal/core
	$(GO) tool pprof -top -sample_index=alloc_space -ignore 'coldFleet|analyzeChunk' $(PROFDIR)/core.test $(PROFDIR)/cold.mem | head -60

# prof-wire is prof-cold for the wire: BenchmarkStreamRoundTrip
# (internal/server: client.HTTPConn against a server over a LocalConn, one
# ?stream=1 query, a 10-document answer), client and server halves in one
# process, with every allocation sampled, then the profile's top sites by
# bytes and then by object count. The binary and the profile go to PROFDIR.
prof-wire:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench 'BenchmarkStreamRoundTrip$$' -benchtime 3000x -memprofilerate 1 \
		-memprofile $(PROFDIR)/wire.mem -o $(PROFDIR)/server.test ./internal/server
	$(GO) tool pprof -top -sample_index=alloc_space $(PROFDIR)/server.test $(PROFDIR)/wire.mem | head -60
	$(GO) tool pprof -top -sample_index=alloc_objects $(PROFDIR)/server.test $(PROFDIR)/wire.mem | head -60

# prof-heap is the resident-memory counterpart: BenchmarkBuildIndex
# (internal/index: one big-source collection, 20 000 documents of 40-word
# bodies) with every allocation sampled, the last index kept alive in a
# package sink, then the profile's top sites by bytes still in use — what
# an index holds, by the site that allocated it. The binary and the
# profile go to PROFDIR.
prof-heap:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench 'BenchmarkBuildIndex$$' -benchtime 1x -memprofilerate 1 \
		-memprofile $(PROFDIR)/heap.mem -o $(PROFDIR)/index.test ./internal/index
	$(GO) tool pprof -top -sample_index=inuse_space $(PROFDIR)/index.test $(PROFDIR)/heap.mem | head -40

# prof-cache is prof-heap for the answer cache: BenchmarkFillCache
# (internal/core: prof-cold's broker, 1 024 distinct cold searches, which
# fill its cache, the broker kept alive in a package sink) with every
# allocation sampled, then the profile's top sites by bytes still in use,
# building, indexing and harvesting the fleet left out — what a full cache
# holds, by the site that allocated it. The binary and the profile go to
# PROFDIR.
prof-cache:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench 'BenchmarkFillCache$$' -benchtime 1024x -memprofilerate 1 \
		-memprofile $(PROFDIR)/cache.mem -o $(PROFDIR)/core.test ./internal/core
	$(GO) tool pprof -top -sample_index=inuse_space -ignore 'coldFleet|harvestOne|index\.Build' $(PROFDIR)/core.test $(PROFDIR)/cache.mem | head -40

# prof-build is prof-heap's CPU counterpart: BenchmarkBuildIndex with a
# CPU profile, then the profile's top functions — where building an index,
# the bulk of every set-up, spends its time. The binary and the profile go
# to PROFDIR.
prof-build:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench 'BenchmarkBuildIndex$$' -benchtime 10x -cpuprofile $(PROFDIR)/build.cpu \
		-o $(PROFDIR)/index.test ./internal/index
	$(GO) tool pprof -top $(PROFDIR)/index.test $(PROFDIR)/build.cpu | head -40

# prof-setup is prof-build for the bulk of a whole big-source set-up:
# BenchmarkSetup (internal/corpus: one universe of 2 sources of 20 000
# documents generated, then each source's index built) with a CPU profile,
# then the profile's top functions. The binary and the profile go to
# PROFDIR.
prof-setup:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench 'BenchmarkSetup$$' -benchtime 5x -cpuprofile $(PROFDIR)/setup.cpu \
		-o $(PROFDIR)/corpus.test ./internal/corpus
	$(GO) tool pprof -top $(PROFDIR)/corpus.test $(PROFDIR)/setup.cpu | head -40

# prof-search attributes what one engine search allocates, by site:
# BenchmarkEngineMix (internal/engine: one 20 000-document source, as the
# big-source workload's, and a fixed mix of pure rankings, filtered
# rankings and phrases) with every allocation sampled, then the profile's
# top sites by object count, counting only what Engine.Search allocates. The binary and
# the profile go to PROFDIR.
prof-search:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench 'BenchmarkEngineMix$$' -benchtime 2000x -memprofilerate 1 \
		-memprofile $(PROFDIR)/search.mem -o $(PROFDIR)/engine.test ./internal/engine
	$(GO) tool pprof -top -sample_index=alloc_objects -focus 'engine\.\(\*Engine\)\.Search' $(PROFDIR)/engine.test $(PROFDIR)/search.mem | head -40

# soak runs the long-haul resilience scenarios (breaker lifecycle, fault
# injection, overload) under the race detector.
soak:
	$(GO) test -race -count=1 -timeout 10m -run 'Soak|Acceptance|DeadlineSheds' .

# stress repeats, under the race detector, the scheduler's tests
# (internal/dispatch) and the searches' goroutine-leak check and
# cancel-at-every-stage table (internal/core) twenty times, and fifty
# times the searches that share one wire call — a follower outliving its
# leader's cancellation, a joiner outliving its leader's deadline, one
# breaker admission per shared call, and a queue fast-draining behind an
# open circuit — and a hung harvest failing alone within the Timeout
# (internal/core), and twenty times a source's summaries built while
# documents arrive and one index's shared summary harvested while
# truncated searches scan it (internal/source), so a scheduling-dependent
# regression shows up here as a flake rather than in production. Each
# alternative of a line's pattern must name a test, or the line fails
# instead of passing on zero tests. About two minutes (the joiner test
# waits out real deadlines).
define stress_run
	@for alt in $$(echo '$(2)' | tr '|' ' '); do \
		$(GO) test -list "$$alt" $(3) | grep -q '^Test' || { echo "stress: no test in $(3) matches $$alt"; exit 1; }; \
	done
	$(GO) test -race -count=$(1) -run '$(2)' $(3)
endef

stress:
	$(call stress_run,20,Test,./internal/dispatch/)
	$(call stress_run,20,TestSearchesLeaveNoGoroutines|TestCancelAtEveryStage,./internal/core/)
	$(call stress_run,50,TestCoalescedSearchOutlivesItsLeadersCancellation|TestSharedCallOutlivesItsLeadersDeadline|TestBreakerReleasedWhenCallSkipsWire|TestRefusedFastDrain|TestHungHarvestDegradesWithinTimeout,./internal/core/)
	$(call stress_run,20,TestContentSummaryReadsOneIndex|TestConcurrentHarvestsShareOneSummary,./internal/source/)

# fuzz splits a budget of about ten seconds over the fuzz targets (go test
# fuzzes one per run), target by target: the server's one request decoder
# and its reading of ?stream= against url.ParseQuery's, the
# SOIF codec against the codec it replaced (internal/soif/oracle_test.go)
# and its run decoder against object-by-object decoding, the stream frame
# decoder, the document decoder against the map
# decoder it replaced and the appending frame encoders against the object
# encoders they replaced (internal/result/oracle_test.go), the
# sample-results decoder against its encoder, the two entry
# points of the expression parser behind them all, the slab parser and
# the @SQuery decoder against the ones they replaced
# (internal/query/parse_oracle_test.go), the cache fingerprint
# against the printer it replaced (internal/qcache/key_oracle_test.go),
# the engine's cursor evaluator against its oracle
# (internal/engine/exhaustive.go) and its actual query against the
# copying rewrite (internal/engine/rewrite_test.go), translation for a
# source against the copying translation
# (internal/translate/oracle_test.go), result sorting against the stored
# string keys it replaced (internal/engine/sort_test.go), the harvested metadata and content
# summary decoders, the substring tokenizers against the copying
# tokenizer they replaced and the stack-buffer stemmer against the
# copying one (internal/text/oracle_test.go), the compact
# posting lists against the int32 layout they replaced
# (internal/index/postings_oracle_test.go), and every merge strategy's
# one scorer with the keyed fuse, batch and incremental, against the
# per-strategy batch merges they replaced (internal/merge/oracle_test.go).
# Seeds also run with every `go test`.
# Minimisation is capped at 100 runs per input: the default (60 s) spends
# the whole budget shrinking the first interesting input it meets.
FUZZ_TARGETS = \
	internal/server:FuzzDecodeRequest:400ms \
	internal/server:FuzzQueryFlagMatchesParseQuery:300ms \
	internal/soif:FuzzSOIFRoundTrip:500ms \
	internal/soif:FuzzDecodeRunMatchesDecode:400ms \
	internal/result:FuzzDecodeStreamItem:500ms \
	internal/result:FuzzDocFromSOIFMatchesOracle:200ms \
	internal/result:FuzzFramesMatchOracle:400ms \
	internal/source:FuzzParseSample:300ms \
	internal/query:FuzzParseFilter:400ms \
	internal/query:FuzzParseRanking:500ms \
	internal/query:FuzzParseMatchesOracle:400ms \
	internal/query:FuzzFromSOIFMatchesOracle:400ms \
	internal/qcache:FuzzCanonicalMatchesOracle:500ms \
	internal/engine:FuzzSearchMatchesExhaustive:800ms \
	internal/engine:FuzzSortMatchesKeyOracle:500ms \
	internal/translate:FuzzForSourceMatchesOracle:500ms \
	internal/meta:FuzzParseMeta:500ms \
	internal/meta:FuzzParseSummary:500ms \
	internal/text:FuzzTokenizeMatchesOracle:500ms \
	internal/text:FuzzStemMatchesOracle:400ms \
	internal/index:FuzzPostingsMatchOracle:600ms \
	internal/merge:FuzzMergeMatchesOracle:600ms

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		set -- $$(echo $$t | tr : ' '); \
		echo "fuzz $$2 ($$3)"; \
		$(GO) test -run '^$$' -fuzz "^$$2\$$" -fuzztime $$3 -fuzzminimizetime 100x ./$$1; \
	done

# loc prints what the simplicity changes count: non-test Go lines for the
# repository (bench/, its own frozen module, excluded) and per internal/
# package, and the configuration surface — With* options, flag
# definitions in cmd/, exported named fields of the structs named
# Options, *Config, *Policy or Limits, distinct "starts_..." metric names —
# and the facade: exported top-level names declared in starts.go.
# CHANGES.md quotes it.
loc:
	@files() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0; }; \
	nontest() { files "$$@" | xargs -0 cat | wc -l; }; \
	src() { grep -rhoE "$$1" --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build $$2; }; \
	printf '%-22s %6d\n' 'repo (non-test)' "$$(nontest .)"; \
	for d in internal/*/; do printf '%-22s %6d\n' "$${d%/}" "$$(nontest "$$d")"; done; \
	printf '%-22s %6d\n' '^func With' "$$(src '^func With' . | wc -l)"; \
	printf '%-22s %6d\n' 'flag definitions' "$$(src 'flag\.(Bool|Int|Int64|Uint|Float64|String|Duration|Var)\(' cmd | wc -l)"; \
	printf '%-22s %6d\n' 'config fields' "$$(files . | xargs -0 awk ' \
		/^type (Options|[A-Za-z0-9_]*Config|[A-Za-z0-9_]*Policy|Limits) struct \{/ { in_ = 1; next } \
		in_ && /^\}/ { in_ = 0 } \
		in_ && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Za-z0-9_]+)*[ \t]+[^ \t\/]/) { s = substr($$0, RSTART, RLENGTH); n += gsub(/,/, ",", s) + 1 } \
		END { print n + 0 }')"; \
	printf '%-22s %6d\n' 'metric names' "$$(src '"starts_[A-Za-z0-9_]*' . | sort -u | wc -l)"; \
	printf '%-22s %6d\n' 'facade names' "$$(awk ' \
		/^(type|var|const) \($$/ { in_ = 1; next } \
		in_ && /^\)/ { in_ = 0 } \
		in_ && /^\t[A-Z][A-Za-z0-9_]* / { n++ } \
		/^(func|type|var|const) [A-Z]/ { n++ } \
		END { print n + 0 }' starts.go)"

# tier1 is the repo's baseline gate: everything must always pass.
tier1: build test

# tier2 adds static analysis (lint = gofmt + vet), the race detector, the
# overload soak scenarios, the scheduler's stress repeat, the fuzz
# budget and the benchmark module's build + smoke run.
tier2: lint race soak stress fuzz bench-smoke

check: tier1 tier2

# cli builds the command-line surfaces for manual verification
# (see .claude/skills/verify/SKILL.md).
cli:
	$(GO) build -o $(BINDIR) ./cmd/...

clean:
	rm -rf $(BINDIR)
	$(GO) clean
