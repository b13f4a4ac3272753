# Everything is Go stdlib-only; no tools beyond the go toolchain needed.

GO      ?= go
BINDIR  ?= /tmp/starts-bin

.PHONY: build test vet race lint bench bench-dispatch bench-smoke prof-cold warm soak stress fuzz loc tier1 tier2 check cli clean

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

# soak runs the long-haul resilience scenarios (breaker lifecycle, fault
# injection, overload) under the race detector.
soak:
	$(GO) test -race -count=1 -timeout 10m -run 'Soak|Acceptance|DeadlineSheds' .

# stress repeats the scheduler's tests (internal/dispatch) and the
# searches' goroutine-leak check (internal/core) twenty times under the
# race detector, so a scheduling-dependent regression shows up here as a
# flake rather than in production. Seconds, not minutes.
stress:
	$(GO) test -race -count=20 -run 'Test' ./internal/dispatch/
	$(GO) test -race -count=20 -run 'TestSearchesLeaveNoGoroutines' ./internal/core/

# fuzz splits a ten-second budget over the fuzz targets (go test fuzzes
# one per run), target by target: the server's one request decoder, the
# SOIF codec against the codec it replaced (internal/soif/oracle_test.go),
# the two response frame decoders, the two entry points of the expression
# parser behind them all, the cache fingerprint against the printer it
# replaced (internal/qcache/key_oracle_test.go), and the engine's cursor
# evaluator against its oracle (internal/engine/exhaustive.go). Seeds also
# run with every `go test`.
# Minimisation is capped at 100 runs per input: the default (60 s) spends
# the whole budget shrinking the first interesting input it meets.
FUZZ_TARGETS = \
	internal/server:FuzzDecodeRequest:2s \
	internal/soif:FuzzSOIFRoundTrip:1s \
	internal/result:FuzzDecodeBatchItem:1s \
	internal/result:FuzzDecodeStreamItem:1s \
	internal/query:FuzzParseFilter:1s \
	internal/query:FuzzParseRanking:1s \
	internal/qcache:FuzzCanonicalMatchesOracle:1s \
	internal/engine:FuzzSearchMatchesExhaustive:2s

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		set -- $$(echo $$t | tr : ' '); \
		echo "fuzz $$2 ($$3)"; \
		$(GO) test -run '^$$' -fuzz "^$$2\$$" -fuzztime $$3 -fuzzminimizetime 100x ./$$1; \
	done

# loc prints what the simplicity changes count: non-test Go lines for the
# repository (bench/, its own frozen module, excluded) and per internal/
# package, and the configuration surface — With* options, flag
# definitions in cmd/, distinct "starts_..." metric names. CHANGES.md
# quotes it.
loc:
	@nontest() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l; }; \
	src() { grep -rhoE "$$1" --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build $$2; }; \
	printf '%-22s %6d\n' 'repo (non-test)' "$$(nontest .)"; \
	for d in internal/*/; do printf '%-22s %6d\n' "$${d%/}" "$$(nontest "$$d")"; done; \
	printf '%-22s %6d\n' '^func With' "$$(src '^func With' . | wc -l)"; \
	printf '%-22s %6d\n' 'flag definitions' "$$(src 'flag\.(Bool|Int|Int64|Uint|Float64|String|Duration|Var)\(' cmd | wc -l)"; \
	printf '%-22s %6d\n' 'metric names' "$$(src '"starts_[A-Za-z0-9_]*' . | sort -u | wc -l)"

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
