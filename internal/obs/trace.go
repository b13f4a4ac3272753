// Package obs is the observability substrate of the metasearcher: a
// per-query Trace (a timed span tree kept in the trace's own slab and
// carried through context.Context), a dependency-free metrics Registry
// (counters, gauges, fixed-bucket latency histograms), an instrumented
// client.Conn wrapper, and the HTTP handlers that surface both (/metrics,
// /debug/last-traces, which snapshots its ring's traces when read).
//
// obs deliberately imports nothing from internal/core — the dependency
// points outward, like core.BreakerGate: core, client wrappers
// (resilient, faulty) and servers all import obs, never the reverse, so
// any layer can annotate the current span or record a metric without an
// import cycle. Traces and the registry travel via context (WithTrace,
// WithSpan, WithMetrics), which is how a retry wrapper deep inside a
// fan-out reaches the span that core opened for its source.
//
// Every Trace and Span method is safe on a nil receiver (a no-op), so
// instrumented code never guards "is tracing on?": SpanFrom on a bare
// context returns nil and the annotations simply vanish.
package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Trace records one operation's timed span tree. The zero value is ready
// to use: Begin stamps the title and start time, StartSpan opens stage
// spans, Finish stamps the total duration. All methods are safe for
// concurrent use (fan-out spans start and end from many goroutines) and
// safe on a nil *Trace.
//
// A trace owns its spans and annotations: a slab of one span and two
// annotations inside the Trace, then chunks that double up to maxChunk,
// linked by first/next pointers — a handful of allocations however many
// spans and annotations an operation records.
type Trace struct {
	mu    sync.Mutex
	title fmt.Stringer
	start time.Time
	dur   time.Duration
	top   *Span      // top-level spans, newest first
	spans []Span     // the slab's current span chunk; its length is handed out
	attrs []attrNode // the slab's current annotation chunk
	span0 [1]Span
	attr0 [2]attrNode
}

// maxChunk caps the slots of one slab chunk.
const maxChunk = 48

// Title is a trace title fixed when it is made.
type Title string

func (t Title) String() string { return string(t) }

// NewTrace returns a started trace with the given title.
func NewTrace(title fmt.Stringer) *Trace {
	t := &Trace{}
	t.Begin(title)
	return t
}

// Begin (re)initializes the trace: it stamps the title, rendered only by
// Snapshot, and the start time and drops any prior spans, so a
// caller-owned Trace can be reused across searches. Every Begin after the
// first starts a fresh slab: a straggling span of the previous operation
// never writes into the new one.
func (t *Trace) Begin(title fmt.Stringer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.attrs = nil, nil
	if t.start.IsZero() {
		t.spans, t.attrs = t.span0[:0], t.attr0[:0]
	}
	t.title, t.start, t.dur, t.top = title, time.Now(), 0, nil
}

// Finish stamps the trace's total duration. Later Finish calls win, so a
// deferred Finish after late annotations is fine.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dur = time.Since(t.start)
}

// StartSpan opens a top-level span (a pipeline stage).
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.span(name)
	s.next, t.top = t.top, s
	return s
}

// span hands out the slab's next span, started now; the caller holds
// t.mu.
func (t *Trace) span(name string) *Span {
	now := time.Now()
	if t.start.IsZero() {
		t.start = now
	}
	s := take(&t.spans, 3)
	*s = Span{t: t, name: name, start: now.Sub(t.start), dur: -1}
	return s
}

// take hands out the next slot of a slab chunk. A full chunk gives way
// to one of first slots or twice its own, up to maxChunk; it lives on
// through the pointers into it.
func take[T any](chunk *[]T, first int) *T {
	if len(*chunk) == cap(*chunk) {
		*chunk = make([]T, 0, max(first, min(2*cap(*chunk), maxChunk)))
	}
	*chunk = (*chunk)[:len(*chunk)+1]
	return &(*chunk)[len(*chunk)-1]
}

// Span is one timed operation within a trace. Spans nest (Child) and
// carry ordered key=value annotations. All methods are safe on a nil
// receiver and safe for concurrent use.
type Span struct {
	t      *Trace
	name   string
	source string
	err    string
	start  time.Duration // since the trace's start
	dur    time.Duration // -1 until End
	attrs  *attrNode     // newest first
	kids   *Span         // newest first
	next   *Span         // the next older sibling
}

// Attr is one span annotation.
type Attr struct {
	Key, Value string
}

// attrNode is an annotation in its span's list.
type attrNode struct {
	Attr
	next *attrNode
}

// Child opens a nested span under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	c := s.t.span(name)
	c.next, s.kids = s.kids, c
	return c
}

// SetSource tags the span with the source it concerns.
func (s *Span) SetSource(id string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.source = id
	s.t.mu.Unlock()
}

// Annotate appends a key=value annotation.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	a := take(&s.t.attrs, 6)
	*a = attrNode{Attr{Key: key, Value: value}, s.attrs}
	s.attrs = a
	s.t.mu.Unlock()
}

// End closes the span, recording its duration and error (nil err leaves
// the span clean). The first End wins; later calls are no-ops, so a
// deferred End is a safe backstop.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.dur >= 0 {
		return
	}
	s.dur = max(now.Sub(s.t.start)-s.start, 0)
	if err != nil {
		s.err = err.Error()
	}
}

// SpanInfo is an immutable snapshot of a Span, safe to hold after the
// trace moves on.
type SpanInfo struct {
	Name     string
	Source   string
	Start    time.Time
	Duration time.Duration
	Err      string
	Attrs    []Attr
	Children []SpanInfo
}

// Attr returns the value of the first annotation with the given key, and
// whether one exists.
func (si SpanInfo) Attr(key string) (string, bool) {
	for _, a := range si.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TraceInfo is an immutable snapshot of a whole Trace.
type TraceInfo struct {
	Query    string
	Start    time.Time
	Duration time.Duration
	Spans    []SpanInfo
}

// Snapshot captures the trace's current state as plain values, its
// title rendered. A nil trace snapshots to the zero TraceInfo.
func (t *Trace) Snapshot() TraceInfo {
	if t == nil {
		return TraceInfo{}
	}
	t.mu.Lock()
	ti := TraceInfo{Start: t.start, Duration: t.dur, Spans: t.snapshotSpans(t.top)}
	title := t.title
	t.mu.Unlock()
	if title != nil {
		ti.Query = title.String()
	}
	return ti
}

// snapshotSpans copies a newest-first sibling list, oldest first, and
// the forest under it; the caller holds the trace lock.
func (t *Trace) snapshotSpans(first *Span) []SpanInfo {
	var out []SpanInfo
	for s := first; s != nil; s = s.next {
		var attrs []Attr
		for a := s.attrs; a != nil; a = a.next {
			attrs = append(attrs, a.Attr)
		}
		slices.Reverse(attrs)
		out = append(out, SpanInfo{
			Name: s.name, Source: s.source, Start: t.start.Add(s.start),
			Duration: max(s.dur, 0), Err: s.err, Attrs: attrs,
			Children: t.snapshotSpans(s.kids),
		})
	}
	slices.Reverse(out)
	return out
}

// SpanCount is the total number of spans in the snapshot, at any depth.
func (ti TraceInfo) SpanCount() int {
	return countSpans(ti.Spans)
}

func countSpans(spans []SpanInfo) int {
	n := len(spans)
	for _, s := range spans {
		n += countSpans(s.Children)
	}
	return n
}

// Find returns the first span with the given name in depth-first order,
// or nil.
func (ti TraceInfo) Find(name string) *SpanInfo {
	return findSpan(ti.Spans, name)
}

func findSpan(spans []SpanInfo, name string) *SpanInfo {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if hit := findSpan(spans[i].Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// Tree renders the snapshot as an indented text tree, one span per line:
//
//	trace "databases" 12.3ms
//	├─ harvest 1.1ms hits=3 misses=0
//	├─ fanout 10.8ms
//	│  ├─ query [cs] 9.2ms docs=5
//	│  └─ query [bad] 10.7ms ERR: injected failure
//	└─ merge 0.2ms strategy=term-stats
func (ti TraceInfo) Tree() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %q %s\n", ti.Query, round(ti.Duration))
	renderSpans(&b, ti.Spans, "")
	return b.String()
}

func renderSpans(b *strings.Builder, spans []SpanInfo, prefix string) {
	for i, s := range spans {
		branch, cont := "├─ ", "│  "
		if i == len(spans)-1 {
			branch, cont = "└─ ", "   "
		}
		b.WriteString(prefix + branch + s.Name)
		if s.Source != "" {
			fmt.Fprintf(b, " [%s]", s.Source)
		}
		fmt.Fprintf(b, " %s", round(s.Duration))
		for _, a := range s.Attrs {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
		}
		if s.Err != "" {
			fmt.Fprintf(b, " ERR: %s", s.Err)
		}
		b.WriteByte('\n')
		renderSpans(b, s.Children, prefix+cont)
	}
}

// round trims durations to a display-friendly precision.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	}
	return d.Round(100 * time.Nanosecond)
}

// TraceRing keeps the last N finished traces, newest first — the
// backing store of /debug/last-traces. It snapshots them when it is
// read, so a trace it holds must not be begun again.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	full bool
}

// NewTraceRing returns a ring holding up to n traces (minimum 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]*Trace, n)}
}

// Add keeps the trace in the ring. Nil rings and nil traces are no-ops.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Snapshots snapshots the stored traces, newest first.
func (r *TraceRing) Snapshots() []TraceInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]TraceInfo, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)].Snapshot())
	}
	return out
}
