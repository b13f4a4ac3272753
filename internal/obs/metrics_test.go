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
