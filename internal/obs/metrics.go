package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a dependency-free metrics registry: named counters, gauges
// and fixed-bucket latency histograms, rendered in a Prometheus-flavored
// text format. Metrics are created on first use and live for the
// registry's lifetime. All methods are safe for concurrent use and safe
// on a nil *Registry (they return nil metrics, whose methods no-op), so
// instrumented code never checks whether metrics are enabled.
//
// Label sets are encoded into the metric name with L:
//
//	reg.Counter(obs.L("starts_source_query_errors_total", "source", id)).Inc()
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// L encodes a label set into a metric name: L("m", "k", "v") is
// `m{k="v"}`. Keys and values are taken as given; pairs must come in
// twos (a trailing odd key is dropped).
func L(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter counts monotonically. A nil *Counter no-ops.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value reads the count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge holds a settable value. A nil *Gauge no-ops.
type Gauge struct {
	n atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.n.Store(n)
}

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.n.Add(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// DefBuckets are the default latency histogram bucket upper bounds,
// spanning sub-millisecond local sources to multi-second remote ones.
var DefBuckets = []time.Duration{
	100 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
	25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
	250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. A nil *Histogram
// no-ops.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; an implicit +Inf follows
	counts []atomic.Int64  // len(bounds)+1
	sum    atomic.Int64    // nanoseconds
	total  atomic.Int64
}

func newHistogram(bounds []time.Duration) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
}

// Count is the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum is the total observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (q in [0, 1]) of the recorded
// durations by linear interpolation within the target bucket, the same
// estimate Prometheus's histogram_quantile computes. It returns 0 with
// no observations; observations in the +Inf overflow bucket clamp to the
// highest finite bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	bounds, counts := h.bounds, h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the (fractional) number of observations at or below the
	// quantile point; walk the buckets cumulatively to the one holding it.
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(bounds) {
			// Overflow bucket: no finite upper edge to interpolate toward.
			return bounds[len(bounds)-1]
		}
		var lo time.Duration
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return bounds[len(bounds)-1]
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default buckets,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, DefBuckets)
}

// HistogramBuckets is Histogram with explicit bucket bounds; the bounds
// of the first call for a name win.
func (r *Registry) HistogramBuckets(name string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Render writes every metric in a Prometheus-flavored text format,
// sorted by name: counters and gauges as `name value`, histograms as
// cumulative `name_bucket{le="s"}` lines plus `name_sum` (seconds) and
// `name_count`.
func (r *Registry) Render() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	counts := make(map[string]*Counter, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	var lines []string
	for name, c := range counts {
		lines = append(lines, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, g.Value()))
	}
	for name, h := range hists {
		cum := int64(0)
		bucketCounts := h.BucketCounts()
		for i, bound := range h.bounds {
			cum += bucketCounts[i]
			lines = append(lines, fmt.Sprintf("%s %d",
				withLabel(suffixName(name, "_bucket"), "le", formatSeconds(bound)), cum))
		}
		cum += bucketCounts[len(bucketCounts)-1]
		lines = append(lines, fmt.Sprintf("%s %d",
			withLabel(suffixName(name, "_bucket"), "le", "+Inf"), cum))
		lines = append(lines, fmt.Sprintf("%s %s", suffixName(name, "_sum"), formatSeconds(h.Sum())))
		lines = append(lines, fmt.Sprintf("%s %d", suffixName(name, "_count"), h.Count()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// withLabel adds one more label to a metric name, folding it into an
// existing label set if the name carries one.
func withLabel(name, key, value string) string {
	if strings.HasSuffix(name, "}") {
		return fmt.Sprintf("%s,%s=%q}", name[:len(name)-1], key, value)
	}
	return fmt.Sprintf("%s{%s=%q}", name, key, value)
}

// suffixName appends a suffix to a metric name, keeping any label set
// last: suffixName(`m{a="b"}`, "_sum") is `m_sum{a="b"}`.
func suffixName(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// formatSeconds renders a duration as decimal seconds, Prometheus-style.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}
