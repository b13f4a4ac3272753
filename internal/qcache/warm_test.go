package qcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/obs"
	"starts/internal/query"
)

func TestWorkloadRoundTrip(t *testing.T) {
	// Multi-line @SQuery text with quotes and tabs, one query per line.
	q := query.New()
	q.Ranking, _ = query.ParseRanking(`list((body-of-text "database"))`)
	ranked, _ := q.Marshal()
	q.Ranking, q.MaxResults = nil, 10
	q.Filter, _ = query.ParseFilter(`((author "ullman") and (title "databases"))`)
	filtered, _ := q.Marshal()
	in := []WarmEntry{{Key: "k1", Query: string(ranked)}, {Key: "k2", Query: string(filtered)}}
	var buf bytes.Buffer
	if err := SaveWorkload(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("loaded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d = %+v, want %+v", i, out[i], in[i])
		}
	}

	path := filepath.Join(t.TempDir(), "workload.jsonl")
	if err := SaveWorkloadFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err = LoadWorkloadFile(path)
	if err != nil || len(out) != len(in) {
		t.Fatalf("file round trip: %v, %d entries", err, len(out))
	}
}

// TestSaveWorkloadFileReplacesWhole: a save replaces the file in one
// rename, never rewriting it in place, so whoever holds the old file —
// a reader, or a crash mid-save — sees the old workload whole. It leaves
// no temporary file behind.
func TestSaveWorkloadFileReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "workload.jsonl")
	if err := SaveWorkloadFile(path, []WarmEntry{{Key: "old", Query: "old"}}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := SaveWorkloadFile(path, []WarmEntry{{Key: "new", Query: "new"}}); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("a reader of the old file read %q after a save, want the old %q", got, want)
	}
	if entries, err := LoadWorkloadFile(path); err != nil || len(entries) != 1 || entries[0].Key != "new" {
		t.Errorf("after the save the path holds %+v (%v), want the new entry", entries, err)
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Errorf("the save left %d files in its directory, want 1", len(names))
	}
}

func TestRecorderDedupAndBound(t *testing.T) {
	served := func(max int) *query.Query {
		q := query.New()
		q.Ranking, _ = query.ParseRanking(`list((body-of-text "database"))`)
		q.MaxResults = max
		return q
	}
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(fmt.Sprintf("k%d", i), served(10))
	}
	es := r.Entries()
	if len(es) != 3 || es[0].Key != "k2" || es[2].Key != "k4" {
		t.Fatalf("entries = %v, want the 3 most recent (k2..k4)", es)
	}
	// Re-recording refreshes recency: k2 survives the next insertion.
	r.Record("k2", served(7))
	r.Record("k5", served(10))
	es = r.Entries()
	keys := map[string]WarmEntry{}
	for _, e := range es {
		keys[e.Key] = e
	}
	if _, ok := keys["k3"]; ok {
		t.Fatal("k3 survived; want it dropped as least recently recorded")
	}
	if q, err := query.Parse([]byte(keys["k2"].Query)); err != nil || q.MaxResults != 7 {
		t.Fatalf("k2 = %+v (%v), want the refreshed query with MaxResults 7", keys["k2"], err)
	}
	// Keyless entries are ignored rather than poisoning the ring.
	r.Record("", served(10))
	if got := len(r.Entries()); got != 3 {
		t.Fatalf("%d entries after a keyless record, want 3", got)
	}
}

func TestWarmReplaysDedupesAndSkipsFresh(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{TTL: time.Hour, Metrics: reg})
	c.Put("fresh", "already here")

	var ran atomic.Int64
	entries := []WarmEntry{
		{Key: "a"},
		{Key: "a"},     // duplicate: skipped
		{Key: "fresh"}, // already cached: skipped
		{Key: "b"},
		{Key: "bad"},
	}
	stats := c.Warm(context.Background(), entries, 2, func(_ context.Context, e WarmEntry) error {
		ran.Add(1)
		if e.Key == "bad" {
			return errors.New("does not parse anymore")
		}
		c.Put(e.Key, "warmed")
		return nil
	})
	if stats.Replayed != 2 || stats.Skipped != 2 || stats.Errors != 1 {
		t.Fatalf("stats = %+v, want 2 replayed, 2 skipped, 1 error", stats)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("run invoked %d times, want 3", got)
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("replayed entry b not in cache")
	}
	if got := reg.Counter(obs.MQCacheWarmReplayed).Value(); got != 2 {
		t.Errorf("warm replayed counter = %d, want 2", got)
	}
	if got := reg.Counter(obs.MQCacheWarmSkipped).Value(); got != 2 {
		t.Errorf("warm skipped counter = %d, want 2", got)
	}
	if got := reg.Counter(obs.MQCacheWarmErrors).Value(); got != 1 {
		t.Errorf("warm errors counter = %d, want 1", got)
	}
}

func TestWarmHonorsConcurrencyBound(t *testing.T) {
	c := New(Config{})
	var inflight, peak atomic.Int64
	entries := make([]WarmEntry, 12)
	for i := range entries {
		entries[i] = WarmEntry{Key: fmt.Sprintf("k%d", i)}
	}
	c.Warm(context.Background(), entries, 3, func(context.Context, WarmEntry) error {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency = %d, want <= 3", p)
	}
}

func TestWarmStopsOnCancelledContext(t *testing.T) {
	c := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	stats := c.Warm(ctx, []WarmEntry{{Key: "a"}, {Key: "b"}}, 1, func(context.Context, WarmEntry) error {
		ran.Add(1)
		return nil
	})
	if got := ran.Load(); got != 0 {
		t.Fatalf("run invoked %d times under a cancelled context, want 0", got)
	}
	if stats.Replayed != 0 {
		t.Fatalf("stats = %+v, want nothing replayed", stats)
	}
}
