package obs

import (
	"strings"
	"testing"
	"time"
)

func TestLabelEncoding(t *testing.T) {
	cases := []struct {
		name string
		kv   []string
		want string
	}{
		{"m", nil, "m"},
		{"m", []string{"source", "cs"}, `m{source="cs"}`},
		{"m", []string{"a", "1", "b", "2"}, `m{a="1",b="2"}`},
		{"m", []string{"odd"}, "m"},
	}
	for _, c := range cases {
		if got := L(c.name, c.kv...); got != c.want {
			t.Errorf("L(%q, %v) = %q, want %q", c.name, c.kv, got, c.want)
		}
	}
}

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %d", c.Value())
	}
	if reg.Counter("c") != c {
		t.Error("same name should return the same counter")
	}
	g := reg.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramBuckets("h", []time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // first bucket
	h.Observe(time.Millisecond)       // boundary lands in first bucket (le is inclusive)
	h.Observe(5 * time.Millisecond)   // second bucket
	h.Observe(time.Minute)            // +Inf overflow
	if got := h.BucketCounts(); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Errorf("BucketCounts = %v", got)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d", h.Count())
	}
	if want := 6*time.Millisecond + 500*time.Microsecond + time.Minute; h.Sum() != want {
		t.Errorf("Sum = %v, want %v", h.Sum(), want)
	}
}

func TestRenderFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(L("starts_source_queries_total", "source", "cs")).Inc()
	reg.Gauge("starts_sources_registered").Set(3)
	h := reg.HistogramBuckets(L("starts_search_seconds", "kind", "q"),
		[]time.Duration{time.Millisecond, time.Second})
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Second)
	out := reg.Render()
	for _, want := range []string{
		"starts_source_queries_total{source=\"cs\"} 1\n",
		"starts_sources_registered 3\n",
		// Cumulative buckets, label sets folded together, suffix before labels.
		"starts_search_seconds_bucket{kind=\"q\",le=\"0.001\"} 1\n",
		"starts_search_seconds_bucket{kind=\"q\",le=\"1\"} 1\n",
		"starts_search_seconds_bucket{kind=\"q\",le=\"+Inf\"} 2\n",
		"starts_search_seconds_sum{kind=\"q\"} 2.0005\n",
		"starts_search_seconds_count{kind=\"q\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistryNoOps(t *testing.T) {
	var reg *Registry
	// Nothing here may panic; the returned nil metrics must be inert.
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(time.Second)
	if reg.Counter("c").Value() != 0 || reg.Gauge("g").Value() != 0 || reg.Histogram("h").Count() != 0 {
		t.Error("nil registry metrics should read zero")
	}
	if reg.Render() != "" {
		t.Error("nil registry should render empty")
	}
}

func TestHistogramQuantile(t *testing.T) {
	bounds := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	reg := NewRegistry()
	h := reg.HistogramBuckets("q", bounds)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// 10 observations in (10ms, 20ms]: every quantile interpolates inside
	// that bucket, linearly from its lower to its upper edge.
	for i := 0; i < 10; i++ {
		h.Observe(15 * time.Millisecond)
	}
	if got := h.Quantile(0.5); got != 15*time.Millisecond {
		t.Errorf("p50 of one mid bucket = %v, want 15ms", got)
	}
	if got := h.Quantile(1); got != 20*time.Millisecond {
		t.Errorf("p100 = %v, want the bucket's upper edge 20ms", got)
	}
	// Add 10 in (0, 10ms]: p50 lands exactly on the first bucket edge and
	// p75 halfway through the second bucket.
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	if got := h.Quantile(0.5); got != 10*time.Millisecond {
		t.Errorf("p50 of 10+10 = %v, want 10ms", got)
	}
	if got := h.Quantile(0.75); got != 15*time.Millisecond {
		t.Errorf("p75 of 10+10 = %v, want 15ms", got)
	}
	// Observations beyond the last bound clamp to the highest finite edge,
	// exactly as histogram_quantile does.
	for i := 0; i < 100; i++ {
		h.Observe(time.Second)
	}
	if got := h.Quantile(0.99); got != 40*time.Millisecond {
		t.Errorf("p99 with overflow = %v, want clamp to 40ms", got)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram should read zero")
	}
}
