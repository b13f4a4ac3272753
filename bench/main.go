// Command bench is the repository's one benchmark: four workloads over the
// metasearch pipeline, end-to-end metrics from an untraced pass and
// per-layer metrics from a traced one, answers checked against an oracle.
// README.md in this directory is the manual; BENCHMARK.json at the root of
// the repository is the contract it implements.
//
//	bash bench/run.sh                                  # all workloads, both passes
//	bash bench/run.sh -selfcheck                       # ... twice, compared against the bounds
//	bash bench/run.sh -smoke                           # 2 s phases, wiring check only
//	bash bench/run.sh --workload wan-stream --seed 7 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"starts/internal/query"
)

// metricDef names one reported metric and its unit. The two lists below
// must match BENCHMARK.json; main checks that they do.
type metricDef struct{ Name, Unit string }

// endToEndMetrics are the gated ones: what the end-to-end pass puts on its
// last line. The untraced timings are not among them — on the reference
// host no CPU-bound timing repeats within the largest bound the contract
// allows (README.md, "Estimators and bounds") — so that pass prints them as
// info and the per-layer pass reports them, from its untraced half.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_query", "count"},
	{"alloc_kb_per_query", "KB"},
	{"heap_mb", "MB"},
}

// timingMetrics are the untraced timings of a phase, see timings.
var timingMetrics = []metricDef{
	{"search_p50_ms", "ms"}, {"search_p99_ms", "ms"}, {"ttfr_p50_ms", "ms"},
	{"quiet_svc_ms", "ms"}, {"cpu_ms_per_query", "ms"},
}

var perLayerMetrics = slices.Concat(timingMetrics, []metricDef{
	{"wire_calls_per_query", "count"}, {"wire_kb_per_query", "KB"},
	{"core.pre_wire_us", "us"}, {"core.fanout_window_us", "us"}, {"core.post_wire_us", "us"},
	{"core.self_us", "us"}, {"core.sources_contacted", "count"}, {"core.harvest_ms", "ms"},
	{"gloss.rank_us", "us"},
	{"translate.for_source_us", "us"}, {"translate.dropped_terms_per_query", "count"},
	{"dispatch.submit_us", "us"}, {"dispatch.queue_wait_us", "us"}, {"dispatch.items_per_wire_call", "count"},
	{"dispatch.inflight_max", "count"}, {"dispatch.shed_per_query", "count"},
	{"qcache.key_us", "us"}, {"qcache.hit_us", "us"}, {"qcache.hit_ratio", "ratio"},
	{"qcache.store_get_us", "us"}, {"qcache.store_put_us", "us"}, {"qcache.evictions_per_query", "count"},
	{"qcache.miss_overhead_us", "us"}, {"qcache.coalesced_ratio", "ratio"},
	{"client.call_us", "us"}, {"client.codec_net_us", "us"}, {"client.encode_us", "us"}, {"client.decode_us", "us"},
	{"client.req_kb_per_call", "KB"}, {"client.resp_kb_per_call", "KB"}, {"client.conns_opened", "count"},
	{"server.handle_us", "us"}, {"server.codec_us", "us"}, {"server.flushes_per_response", "count"},
	{"soif.marshal_mb_s", "MB/s"}, {"soif.unmarshal_mb_s", "MB/s"}, {"soif.allocs_per_kb", "count"},
	{"engine.search_us", "us"}, {"engine.ranked_us", "us"}, {"engine.filter_us", "us"},
	{"engine.allocs_per_search", "count"}, {"engine.docs_returned", "count"},
	{"index.build_docs_per_s", "1/s"}, {"index.heap_kb_per_doc", "KB"},
	{"merge.fuse_us", "us"}, {"merge.incremental_us", "us"}, {"merge.early_docs_ratio", "ratio"},
	{"merge.input_docs_per_query", "count"},
	{"resilient.wrap_overhead_us", "us"}, {"resilient.retries_per_query", "count"},
	{"obs.wrap_overhead_us", "us"}, {"obs.spans_per_query", "count"},
	{"peer.remote_get_us", "us"}, {"peer.put_us", "us"}, {"peer.entry_kb", "KB"},
	{"meta.summary_kb", "KB"}, {"meta.summary_parse_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"}, {"bench.gen_lag_p99_ms", "ms"}, {"bench.sum_check_ratio", "ratio"},
	{"bench.host_noise_ratio", "ratio"}, {"bench.cpu_utilisation", "ratio"},
})

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one pass over one workload: the last line of the program's
// output is its first four fields, the rest goes to bench/out/.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Info     map[string]metric `json:"info,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Warnings []string          `json:"warnings,omitempty"`
	Workload *workload         `json:"workload,omitempty"`
	Seed     int64             `json:"seed,omitempty"`
	Traced   bool              `json:"traced"`
	Samples  int               `json:"samples,omitempty"`
	Phases   map[string]string `json:"phases,omitempty"`
	Env      map[string]any    `json:"env,omitempty"`
}

// problem records a wrong answer or a broken invariant: the pass fails.
func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// limit records a measurement that left the range in which the workload
// means what it says (too few samples, a late generator, a busy CPU). That
// is the host's doing, not the program's, so only a strict run fails on it:
// a single pass, as the driver runs it, reports it and goes on.
func (r *report) limit(strict bool, format string, args ...any) {
	if strict {
		r.problem(format, args...)
		return
	}
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// options are the run-wide settings the flags choose.
type options struct {
	seed     int64
	phase    time.Duration // measured phase
	warmup   time.Duration
	setups   int           // set-up runs at least this often
	setupFor time.Duration // ... and for at least this long in all; the median is reported
	strict   bool          // fail on the sample-count, lag, CPU and sum-check limits
}

func newOptions(seed int64, seconds float64) options {
	o := options{seed: seed, phase: time.Duration(seconds * float64(time.Second)), setups: 3, setupFor: 3 * time.Second}
	o.warmup = min(o.phase/5, 3*time.Second)
	return o
}

// setup is everything before warm-up: corpus generation, index build,
// listeners up, broker wired, harvest done.
func setup(w *workload, seed int64, exhaustive bool) (*fleet, *rig, time.Duration) {
	start := time.Now()
	f := buildFleet(w, seed, exhaustive)
	r := wire(w, f, nil)
	return f, r, time.Since(start)
}

func makePool(w *workload, f *fleet, seed int64) []*query.Query {
	return genQueries(newRand(seed, 3), f.topics, w.Pool, w.FilterShare)
}

// warm brings the rig to steady state: a hot workload first fills its
// cache with the whole pool, then every workload runs its own traffic for
// the warm-up period. It returns the per-client sample capacity a measured
// phase of length phase needs.
func warm(w *workload, r *rig, tf *traffic, o options, phase time.Duration) int {
	if w.Draw == "zipf" {
		for _, q := range tf.pool {
			if _, err := r.ms.Search(context.Background(), q); err != nil {
				fatalf("pre-warming: %v", err)
			}
		}
	}
	res := runPhase(w, r, tf, o.warmup, 1<<16, nil)
	if w.wan() {
		return 0
	}
	perClientRate := float64(res.attempted) / float64(w.Clients) / o.warmup.Seconds()
	return int(3*perClientRate*phase.Seconds()) + 1<<16
}

// timings are the untraced timings of one phase, keyed as timingMetrics,
// and the checks that they mean what they say.
func (r *report) timings(w *workload, ph *phaseResult, strict bool) map[string]float64 {
	if len(ph.lat) < 1000 {
		r.limit(strict, "%d latency samples: the 99th percentile needs at least 1000", len(ph.lat))
	}
	if lag, limit := quantile(ph.lag, 0.99)/1e6, float64(w.StragglerMS); w.wan() && lag > limit {
		r.limit(strict, "generator lag p99 %.3f ms exceeds the slowest source's delay (%.0f ms): the schedule, not the broker, sets the tail", lag, limit)
	}
	if util := ph.utilisation(); w.CPUCap > 0 && util > w.CPUCap {
		r.limit(strict, "CPU utilisation %.2f exceeds the workload's cap %.2f: latency is no longer RTT-bound", util, w.CPUCap)
	}
	return map[string]float64{
		"search_p50_ms":    quantile(ph.lat, 0.50) / 1e6,
		"search_p99_ms":    quantile(ph.lat, 0.99) / 1e6,
		"ttfr_p50_ms":      quantile(ph.ttfr, 0.50) / 1e6,
		"quiet_svc_ms":     quietDecile(ph.windows, svcOf) / 1e6,
		"cpu_ms_per_query": quietDecile(ph.windows, cpuOf) / 1e6,
	}
}

// runUntraced is the end-to-end pass.
func runUntraced(w *workload, o options) *report {
	res := newResult(w, o, false)
	// Set-up runs at least o.setups times and for at least o.setupFor in
	// all — a small fleet builds in under half a second, which the host
	// moves by a third from one time to the next — and the median is
	// reported. The first build pins its engines to the exhaustive walk —
	// which costs the same to build — and stays on as the oracle's
	// reference fleet.
	ref, r, d := setup(w, o.seed, true)
	setups, total := []float64{d.Seconds()}, d
	var f *fleet
	for len(setups) < o.setups || total < o.setupFor {
		r.close()
		f, r, d = setup(w, o.seed, false)
		setups, total = append(setups, d.Seconds()), total+d
	}
	defer r.close()
	slices.Sort(setups)
	pool := makePool(w, f, o.seed)
	if err := checkOracle(w, r, ref, pool, o.seed); err != nil {
		res.problem("%v", err)
	}
	tf := newTraffic(w, pool, o.seed)
	ph := runPhase(w, r, tf, o.phase, warm(w, r, tf, o, o.phase), nil)

	done := float64(ph.attempted)
	res.Attempted, res.Failed, res.Samples = ph.attempted, ph.failed, len(ph.lat)
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v} }
	put("setup_s", setups[len(setups)/2])
	put("allocs_per_query", float64(ph.mallocs)/done)
	put("alloc_kb_per_query", float64(ph.allocated)/1024/done)
	res.Info = map[string]metric{
		"throughput_qps":   {done / ph.wall.Seconds(), "1/s"},
		"search_mean_ms":   {mean(ph.lat) / 1e6, "ms"},
		"search_p999_ms":   {quantile(ph.lat, 0.999) / 1e6, "ms"},
		"median_svc_ms":    {windowQuantile(ph.windows, svcOf, 0.5) / 1e6, "ms"},
		"cpu_mean_ms":      {ph.cpu.Seconds() * 1e3 / done, "ms"},
		"windows":          {float64(len(ph.windows)), "count"},
		"cpu_utilisation":  {ph.utilisation(), "ratio"},
		"gen_lag_p99_ms":   {quantile(ph.lag, 0.99) / 1e6, "ms"},
		"gen_lag_p50_ms":   {quantile(ph.lag, 0.5) / 1e6, "ms"},
		"gen_lag_max_ms":   {quantile(ph.lag, 1) / 1e6, "ms"},
		"setups":           {float64(len(setups)), "count"},
		"setup_min_s":      {setups[0], "s"},
		"setup_max_s":      {setups[len(setups)-1], "s"},
		"index_build_s":    {f.buildDur.Seconds(), "s"},
		"harvest_ms":       {float64(r.harvest) / 1e6, "ms"},
		"oracle_queries":   {oracleQueries, "count"},
		"pool_distinct":    {float64(len(pool)), "count"},
		"measured_phase_s": {ph.wall.Seconds(), "s"},
		"process_cpu_s":    {ph.cpu.Seconds(), "s"},
	}
	timings := res.timings(w, ph, o.strict)
	for _, d := range timingMetrics {
		res.Info[d.Name] = metric{timings[d.Name], d.Unit}
	}
	// The benchmark's own buffers go before the heap is read: what stays
	// is the fleet, the broker and its caches, and the query pool.
	*ph = phaseResult{}
	put("heap_mb", float64(heapInUse())/(1<<20))
	res.finish()
	return res
}

// runTraced is the per-layer pass: half of the time untraced on a rig
// without the measuring shims (the pass's timings, and the baseline for
// the tracing overhead), half traced, then the replays on the idle fleet.
func runTraced(w *workload, o options) *report {
	res := newResult(w, o, true)
	half := o.phase / 2
	before := heapInUse()
	f := buildFleet(w, o.seed, false)
	f.heapGrew = heapInUse() - before
	pool := makePool(w, f, o.seed)
	tf := newTraffic(w, pool, o.seed)

	plain := wire(w, f, nil)
	if err := checkOracle(w, plain, buildFleet(w, o.seed, true), pool, o.seed); err != nil {
		res.problem("%v", err)
	}
	untraced := runPhase(w, plain, tf, half, warm(w, plain, tf, o, half), nil)
	timings := res.timings(w, untraced, o.strict)
	plain.close()

	tr := newTracer()
	r := wire(w, f, tr)
	defer r.close()
	samples := warm(w, r, tf, o, half)
	entries := 0
	if tr.store != nil {
		entries = tr.store.Len()
	}
	tr.start()
	ph := runPhase(w, r, tf, half, samples, tr)
	tr.on.Store(false)
	var evictions int64
	if tr.store != nil {
		// Every put of the phase either grew the store or evicted.
		evictions = tr.puts.Load() - int64(tr.store.Len()-entries)
	}
	res.Attempted, res.Failed, res.Samples = untraced.attempted+ph.attempted, untraced.failed+ph.failed, len(untraced.lat)
	for name, v := range layerMetrics(w, f, r, tr, ph, timings["quiet_svc_ms"], evictions) {
		res.Metrics[name] = metric{Value: v}
	}
	for name, v := range timings {
		res.Metrics[name] = metric{Value: v}
	}
	if sc := res.Metrics["bench.sum_check_ratio"].Value; sc < 0.97 || sc > 1.03 {
		res.limit(o.strict, "pre-wire + fan-out window + post-wire is %.3f of the search time, outside 0.97-1.03", sc)
	}
	res.finish()
	writeJSON("trace-"+w.Name+".json", map[string]any{"workload": w.Name, "seed": o.seed, "spans": tr.spans})
	return res
}

// heapInUse is HeapAlloc after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func newResult(w *workload, o options, traced bool) *report {
	return &report{
		Correct: true, Metrics: map[string]metric{}, Workload: w, Seed: o.seed, Traced: traced,
		Phases: map[string]string{"warmup": o.warmup.String(), "measured": o.phase.String()},
		Env:    environment(),
	}
}

// defs is the metric list the report's pass owes.
func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// finish stamps units, checks that exactly the declared metrics were
// produced, and writes the result file.
func (r *report) finish() {
	defs := r.defs()
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Not measurable on this workload (no wire, no cache): zero.
			m.Value = 0
		}
		m.Unit = d.Unit
		r.Metrics[d.Name] = m
	}
	if len(r.Metrics) != len(defs) {
		fatalf("%d metrics produced, %d declared", len(r.Metrics), len(defs))
	}
	name := "result-" + r.Workload.Name + ".json"
	if r.Traced {
		name = "layers-" + r.Workload.Name + ".json"
	}
	writeJSON(name, r)
}

func writeJSON(name string, v any) {
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		fatalf("encoding %s: %v", name, err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		fatalf("%v", err)
	}
}

func environment() map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
		"go_version": runtime.Version(), "cpu_model": "unknown", "git_commit": "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only in a work tree of its own: git must not go looking for one
	// above an exported checkout.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env["git_commit"] = strings.TrimSpace(string(out))
		}
	}
	return env
}

// print lists every metric by name with its unit, then the problems.
func (r *report) print() {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer"
	}
	fmt.Printf("== %s  %s  seed %d  attempted %d  failed %d  correct %v\n",
		r.Workload.Name, pass, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, d := range r.defs() {
		fmt.Printf("  %-36s %14.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	var info []string
	for name := range r.Info {
		info = append(info, name)
	}
	slices.Sort(info)
	for _, name := range info {
		fmt.Printf("  info %-31s %14.4f %s\n", name, r.Info[name].Value, r.Info[name].Unit)
	}
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
	for _, p := range r.Warnings {
		fmt.Printf("  WARNING %s\n", p)
	}
}

// lastLine prints the contract's result object.
func (r *report) lastLine() {
	data, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Println(string(data))
}

// runAll runs both passes of every workload and returns the end-to-end
// results by workload name.
func runAll(o options) (map[string]*report, bool) {
	out := map[string]*report{}
	ok := true
	for _, w := range workloads {
		e := runUntraced(w, o)
		e.print()
		l := runTraced(w, o)
		l.print()
		out[w.Name] = e
		ok = ok && e.Correct && l.Correct && e.Failed == 0 && l.Failed == 0
	}
	return out, ok
}

// selfcheck runs the whole set twice on this binary and compares every
// gated metric of every workload against its bound in BENCHMARK.json. The
// untraced timings are listed with them, unbounded.
func selfcheck(o options, bounds map[string]float64) bool {
	a, okA := runAll(o)
	b, okB := runAll(o)
	ok := okA && okB
	fmt.Printf("\n%-12s %-20s %12s %12s %8s %6s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	row := func(w *workload, name string, x, y float64, bound string, gated bool) {
		diff := math.Abs(x-y) / ((x + y) / 2)
		verdict := ""
		if gated && diff > bounds[name] {
			verdict, ok = "  DISAGREE", false
		}
		fmt.Printf("%-12s %-20s %12.4f %12.4f %7.1f%% %6s%s\n", w.Name, name, x, y, 100*diff, bound, verdict)
	}
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			row(w, d.Name, a[w.Name].Metrics[d.Name].Value, b[w.Name].Metrics[d.Name].Value,
				fmt.Sprintf("%.0f%%", 100*bounds[d.Name]), true)
		}
		for _, d := range timingMetrics {
			row(w, d.Name, a[w.Name].Info[d.Name].Value, b[w.Name].Info[d.Name].Value, "info", false)
		}
	}
	return ok
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// loadBounds reads BENCHMARK.json from the working directory (the root of
// the checkout), checks that it declares exactly the workloads and
// metrics this program produces, and returns the end-to-end bounds.
func loadBounds() map[string]float64 {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatalf("%v (run from the root of the repository)", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fatalf("BENCHMARK.json: %v", err)
	}
	bounds := map[string]float64{}
	declared := map[string]string{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name], declared["e2e "+m.Name] = m.Bound, m.Unit
	}
	for _, m := range bf.PerLayer {
		declared["layer "+m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		declared["workload "+w.Name] = ""
	}
	produced := map[string]string{}
	for _, d := range endToEndMetrics {
		produced["e2e "+d.Name] = d.Unit
	}
	for _, d := range perLayerMetrics {
		produced["layer "+d.Name] = d.Unit
	}
	for _, w := range workloads {
		produced["workload "+w.Name] = ""
	}
	for k, unit := range produced {
		if got, ok := declared[k]; !ok || got != unit {
			fatalf("BENCHMARK.json does not declare %s with unit %q", k, unit)
		}
	}
	if len(declared) != len(produced) {
		fatalf("BENCHMARK.json declares %d names, the program produces %d", len(declared), len(produced))
	}
	return bounds
}

func main() {
	// Two procs on every host: the numbers are only comparable at a fixed
	// width, and the reference host has two cores.
	runtime.GOMAXPROCS(2)
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 30, "length of the measured phase")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = per-layer pass")
		self    = flag.Bool("selfcheck", false, "run everything twice and compare against the bounds")
		smoke   = flag.Bool("smoke", false, "2 s phases, two set-ups, limits not enforced: a wiring check")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	bounds := loadBounds()
	o := newOptions(*seed, *seconds)
	// The whole set holds itself to the limits; a single pass or a smoke
	// run only reports them.
	o.strict = *name == "all" && !*smoke
	if *smoke {
		o.phase, o.warmup, o.setups, o.setupFor = 2*time.Second, 400*time.Millisecond, 2, 0
	}
	ok := true
	switch {
	case *self:
		ok = selfcheck(o, bounds)
	case *name == "all":
		_, ok = runAll(o)
	default:
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		run := runUntraced
		if *trace == 1 {
			run = runTraced
		}
		r := run(w, o)
		r.print()
		r.lastLine()
		ok = r.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
