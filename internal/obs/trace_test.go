package obs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace(Title("q1"))
	h := tr.StartSpan("harvest")
	c := h.Child("harvest cs")
	c.SetSource("cs")
	c.End(nil)
	h.Annotate("errors", "0")
	h.End(nil)
	f := tr.StartSpan("fanout")
	bad := f.Child("query bad")
	bad.SetSource("bad")
	bad.End(errors.New("source down"))
	f.End(nil)
	tr.Finish()

	ti := tr.Snapshot()
	if ti.Query != "q1" {
		t.Errorf("Query = %q", ti.Query)
	}
	if got := ti.SpanCount(); got != 4 {
		t.Errorf("SpanCount = %d, want 4", got)
	}
	if len(ti.Spans) != 2 || ti.Spans[0].Name != "harvest" || ti.Spans[1].Name != "fanout" {
		t.Fatalf("top-level spans = %+v", ti.Spans)
	}
	if v, ok := ti.Spans[0].Attr("errors"); !ok || v != "0" {
		t.Errorf("harvest errors attr = %q %v", v, ok)
	}
	hit := ti.Find("query bad")
	if hit == nil || hit.Source != "bad" || hit.Err != "source down" {
		t.Errorf("Find(query bad) = %+v", hit)
	}
	if ti.Find("no such span") != nil {
		t.Error("Find should miss")
	}
	tree := ti.Tree()
	for _, want := range []string{`trace "q1"`, "├─ harvest", "│  └─ harvest cs [cs]", "└─ fanout", "ERR: source down"} {
		if !strings.Contains(tree, want) {
			t.Errorf("Tree missing %q:\n%s", want, tree)
		}
	}
}

func TestSpanFirstEndWins(t *testing.T) {
	tr := NewTrace(Title("q"))
	sp := tr.StartSpan("s")
	sp.End(nil)
	sp.End(errors.New("late"))
	if got := tr.Snapshot().Spans[0].Err; got != "" {
		t.Errorf("second End should not overwrite: err = %q", got)
	}
}

func TestTraceBeginResets(t *testing.T) {
	var tr Trace // zero value is usable, as WithTrace promises
	tr.Begin(Title("first"))
	old := tr.StartSpan("s")
	tr.Begin(Title("second"))
	ti := tr.Snapshot()
	if ti.Query != "second" || len(ti.Spans) != 0 {
		t.Errorf("Begin should reset: %+v", ti)
	}
	// A straggler of the first operation ends its span after the second
	// began: it must write into neither the new tree nor its slots.
	fresh := tr.StartSpan("fresh")
	old.Annotate("late", "x")
	old.End(errors.New("late"))
	ti = tr.Snapshot()
	if len(ti.Spans) != 1 || ti.Spans[0].Name != "fresh" || ti.Spans[0].Err != "" || ti.Spans[0].Attrs != nil {
		t.Errorf("a straggling span wrote into the re-begun trace: %+v", ti.Spans)
	}
	fresh.End(nil)
}

func TestNilTraceAndSpanNoOp(t *testing.T) {
	var tr *Trace
	tr.Begin(Title("x"))
	tr.Finish()
	sp := tr.StartSpan("s")
	if sp != nil {
		t.Fatalf("nil trace StartSpan = %v", sp)
	}
	// None of these may panic.
	sp.SetSource("cs")
	sp.Annotate("k", "v")
	sp.End(errors.New("x"))
	if c := sp.Child("nested"); c != nil {
		t.Errorf("nil span Child = %v", c)
	}
	if ti := tr.Snapshot(); ti.SpanCount() != 0 {
		t.Errorf("nil trace snapshot = %+v", ti)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace(Title("concurrent"))
	f := tr.StartSpan("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := f.Child("query")
			sp.Annotate("k", "v")
			sp.End(nil)
		}()
	}
	wg.Wait()
	f.End(nil)
	if got := tr.Snapshot().SpanCount(); got != 33 {
		t.Errorf("SpanCount = %d, want 33", got)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(2)
	if got := r.Snapshots(); len(got) != 0 {
		t.Errorf("empty ring = %v", got)
	}
	for _, q := range []string{"a", "b", "c"} {
		r.Add(NewTrace(Title(q)))
	}
	got := r.Snapshots()
	if len(got) != 2 || got[0].Query != "c" || got[1].Query != "b" {
		t.Errorf("ring after overflow = %+v", got)
	}
	r.Add(nil) // no-op
	var nilRing *TraceRing
	nilRing.Add(NewTrace(Title("x")))
	if nilRing.Snapshots() != nil {
		t.Error("nil ring should be inert")
	}
}

func TestContextCarriers(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil || SpanFrom(ctx) != nil || MetricsFrom(ctx) != nil {
		t.Fatal("bare context should carry nothing")
	}
	tr := NewTrace(Title("q"))
	sp := tr.StartSpan("stage")
	reg := NewRegistry()
	ctx = WithMetrics(WithSpan(WithTrace(ctx, tr), sp), reg)
	if TraceFrom(ctx) != tr || SpanFrom(ctx) != sp || MetricsFrom(ctx) != reg {
		t.Error("context carriers should round-trip")
	}
	Annotate(ctx, "retry", "attempt 2")
	if v, ok := tr.Snapshot().Spans[0].Attr("retry"); !ok || v != "attempt 2" {
		t.Errorf("Annotate via context = %q %v", v, ok)
	}
	// Annotating a bare context must not panic.
	Annotate(context.Background(), "k", "v")
}
