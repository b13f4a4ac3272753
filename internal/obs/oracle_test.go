package obs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// oracleTrace is the Trace the slab replaced, kept as the oracle of its
// span trees: every span its own allocation, child and annotation lists
// grown by append, the title a string.
type oracleTrace struct {
	mu    sync.Mutex
	query string
	start time.Time
	dur   time.Duration
	spans []*oracleSpan
}

func newOracleTrace(query string) *oracleTrace {
	t := &oracleTrace{}
	t.Begin(query)
	return t
}

// Begin (re)initializes the trace: it stamps the query description and
// the start time and drops any prior spans, so a caller-owned Trace can
// be reused across searches.
func (t *oracleTrace) Begin(query string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.query = query
	t.start = time.Now()
	t.dur = 0
	t.spans = nil
}

// Finish stamps the trace's total duration. Later Finish calls win, so a
// deferred Finish after late annotations is fine.
func (t *oracleTrace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dur = time.Since(t.start)
}

// StartSpan opens a top-level span (a pipeline stage).
func (t *oracleTrace) StartSpan(name string) *oracleSpan {
	if t == nil {
		return nil
	}
	s := &oracleSpan{t: t, name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// oracleSpan is the Span the slab replaced.
type oracleSpan struct {
	t        *oracleTrace
	name     string
	source   string
	start    time.Time
	dur      time.Duration
	ended    bool
	err      string
	attrs    []Attr
	children []*oracleSpan
}

// Child opens a nested span under s.
func (s *oracleSpan) Child(name string) *oracleSpan {
	if s == nil {
		return nil
	}
	c := &oracleSpan{t: s.t, name: name, start: time.Now()}
	s.t.mu.Lock()
	s.children = append(s.children, c)
	s.t.mu.Unlock()
	return c
}

// SetSource tags the span with the source it concerns.
func (s *oracleSpan) SetSource(id string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.source = id
	s.t.mu.Unlock()
}

// Annotate appends a key=value annotation.
func (s *oracleSpan) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// End closes the span, recording its duration and error (nil err leaves
// the span clean). The first End wins; later calls are no-ops, so a
// deferred End is a safe backstop.
func (s *oracleSpan) End(err error) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if err != nil {
		s.err = err.Error()
	}
}

// Snapshot captures the trace's current state as plain values. A nil
// trace snapshots to the zero TraceInfo.
func (t *oracleTrace) Snapshot() TraceInfo {
	if t == nil {
		return TraceInfo{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ti := TraceInfo{Query: t.query, Start: t.start, Duration: t.dur}
	ti.Spans = oracleSnapshotSpans(t.spans)
	return ti
}

// oracleSnapshotSpans copies a span forest; the caller holds the trace lock.
func oracleSnapshotSpans(spans []*oracleSpan) []SpanInfo {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanInfo, len(spans))
	for i, s := range spans {
		out[i] = SpanInfo{
			Name: s.name, Source: s.source, Start: s.start,
			Duration: s.dur, Err: s.err,
			Attrs:    append([]Attr(nil), s.attrs...),
			Children: oracleSnapshotSpans(s.children),
		}
	}
	return out
}

// spanPair is one span as the slab trace and the oracle see it; the zero
// pair is the nil span.
type spanPair struct {
	s *Span
	o *oracleSpan
}

// traceOp is one step of a script: opStart opens a top-level span, the
// others act on handle on (0 the nil span, 1 the span every script
// shares, then the script's own spans in the order it opened them).
type traceOp struct {
	kind      int
	on        int
	key, val  string
	withError bool
}

const (
	opStart = iota
	opChild
	opAnnotate
	opSource
	opEnd
	numOps
)

// randomScript draws n steps for one goroutine.
func randomScript(rng *rand.Rand, worker, n int) []traceOp {
	ops := make([]traceOp, n)
	handles := 2
	for i := range ops {
		op := traceOp{
			kind: rng.Intn(numOps), on: rng.Intn(handles),
			key: fmt.Sprintf("w%d.%d", worker, i), val: strconv.Itoa(rng.Intn(5)),
			withError: rng.Intn(3) == 0,
		}
		if op.kind == opStart || op.kind == opChild {
			handles++
		}
		ops[i] = op
	}
	return ops
}

// run plays a script on both traces. Steps on the shared span, and the
// top-level spans every script links into the trace, take mu, so both
// traces see them in one order; steps on a script's own spans do not,
// so they race the other scripts inside each trace's own locking.
func (p spanPair) run(ops []traceOp, tr *Trace, or *oracleTrace, mu *sync.Mutex) {
	h := []spanPair{{}, p}
	for _, op := range ops {
		on := h[op.on]
		if op.kind == opStart || op.on == 1 {
			mu.Lock()
		}
		switch op.kind {
		case opStart:
			h = append(h, spanPair{tr.StartSpan(op.key), or.StartSpan(op.key)})
		case opChild:
			h = append(h, spanPair{on.s.Child(op.key), on.o.Child(op.key)})
		case opAnnotate:
			on.s.Annotate(op.key, op.val)
			on.o.Annotate(op.key, op.val)
		case opSource:
			on.s.SetSource(op.val)
			on.o.SetSource(op.val)
		case opEnd:
			var err error
			if op.withError {
				err = errors.New(op.key)
			}
			on.s.End(err)
			on.o.End(err)
		}
		if op.kind == opStart || op.on == 1 {
			mu.Unlock()
		}
	}
}

// timeless drops what two runs cannot share: start times and durations.
func timeless(spans []SpanInfo) []SpanInfo {
	for i := range spans {
		spans[i].Start, spans[i].Duration = time.Time{}, 0
		timeless(spans[i].Children)
	}
	return spans
}

// TestTraceMatchesOracle drives the slab trace and the oracle with the
// same random scripts — opening, nesting, annotating, tagging and ending
// spans, ending some twice, acting on nil spans, from goroutines that
// interleave — and wants the same span trees: shape, names, sources,
// annotations, their order and errors.
func TestTraceMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, or := NewTrace(Title("q")), newOracleTrace("q")
		shared := spanPair{tr.StartSpan("shared"), or.StartSpan("shared")}
		scripts := make([][]traceOp, 1+rng.Intn(4))
		for w := range scripts {
			scripts[w] = randomScript(rng, w, rng.Intn(80))
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, ops := range scripts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				shared.run(ops, tr, or, &mu)
			}()
		}
		wg.Wait()
		tr.Finish()
		or.Finish()
		got, want := tr.Snapshot(), or.Snapshot()
		if got.Query != want.Query {
			t.Fatalf("seed %d: title %q, oracle %q", seed, got.Query, want.Query)
		}
		if g, w := timeless(got.Spans), timeless(want.Spans); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: span trees differ\nslab:\n%s\noracle:\n%s", seed,
				TraceInfo{Spans: g}.Tree(), TraceInfo{Spans: w}.Tree())
		}
	}
}

// traceSink keeps the budget's traces on the heap.
var traceSink *Trace

// TestTraceAllocBudget bounds what recording a trace allocates: the
// shape of a wan-stream search, 21 spans and 30 annotations, costs the
// Trace and a few slab chunks, not an object per span or annotation.
func TestTraceAllocBudget(t *testing.T) {
	spans := make([]*Span, 0, 21)
	record := func(tr *Trace) {
		spans = spans[:0]
		for _, stage := range []string{"harvest", "select", "translate", "fanout", "merge"} {
			spans = append(spans, tr.StartSpan(stage))
		}
		for i := 0; i < 4; i++ {
			spans = append(spans, spans[2].Child("translate"))
			q := spans[3].Child("query")
			spans = append(spans, q, q.Child("dispatch"), q.Child("conn.query"))
		}
		for i := 0; i < 30; i++ {
			spans[i%len(spans)].Annotate("docs", "20")
		}
		for _, s := range spans {
			s.End(nil)
		}
		tr.Finish()
	}
	got := testing.AllocsPerRun(200, func() {
		traceSink = NewTrace(Title("q"))
		record(traceSink)
	})
	if n := traceSink.Snapshot().SpanCount(); n != 21 {
		t.Fatalf("recorded %d spans, want 21", n)
	}
	const budget = 8 // 7 measured (about 70 with a span, a child list and an annotation list each), plus a quarter
	t.Logf("trace of 21 spans and 30 annotations: %.0f allocations (budget %d)", got, budget)
	if got > budget {
		t.Errorf("a trace of 21 spans and 30 annotations allocates %.0f objects, budget %d", got, budget)
	}
}
