package core

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
)

// TestStartWorkloadSaver pins the periodic snapshot satellite: the saver
// writes the workload on its ticker and once more on shutdown, and the
// file round-trips through LoadWorkloadFile.
func TestStartWorkloadSaver(t *testing.T) {
	ms, _, _ := cachedFleet(t, qcache.Config{TTL: time.Minute})
	defer ms.Close()
	if _, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "workload.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	done := ms.StartWorkloadSaver(ctx, path, 10*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("saver did not stop")
	}

	entries, err := qcache.LoadWorkloadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("saved %d workload entries, want 1", len(entries))
	}
	if entries[0].Key == "" {
		t.Error("saved entry has no key")
	}
}

// TestDebugHandler pins the three debug endpoints a long-running
// metasearcher exposes.
func TestDebugHandler(t *testing.T) {
	ms, _, _ := cachedFleet(t, qcache.Config{TTL: time.Minute})
	defer ms.Close()
	if _, err := ms.Search(context.Background(), rankingQuery(t, `list((body-of-text "databases"))`)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ms.DebugHandler())
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, sb.String()
	}

	if resp, body := get("/metrics"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "starts_dispatch_submitted_total") {
		t.Errorf("/metrics: status %d, dispatch counters missing:\n%.400s", resp.StatusCode, body)
	}
	if resp, body := get("/debug/workload"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(resp.Header.Get("Content-Type"), "x-ndjson") ||
		!strings.Contains(body, `"key"`) {
		t.Errorf("/debug/workload: status %d content-type %q body %.200q",
			resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	if resp, body := get("/debug/dispatch"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"source": "cs"`) {
		t.Errorf("/debug/dispatch: status %d body %.200s", resp.StatusCode, body)
	}
}

// TestWarmStartReplaysTheServedQuery: a replay asks exactly the query that
// was served, not one rebuilt from its expressions, so a query whose
// stop-word policy, answer fields and sort are not the defaults warms its
// own cache entry through a saved workload, and its first repeat after a
// restart is a hit.
func TestWarmStartReplaysTheServedQuery(t *testing.T) {
	ctx := context.Background()
	srcs := []freshSource{{id: "s1"}, {id: "s2"}}
	q := rankingQuery(t, `list((body-of-text "databases"))`)
	q.DropStopWords = false
	q.AnswerFields = []attr.Field{attr.FieldTitle, attr.FieldAuthor}
	q.SortBy = []query.SortKey{{Field: attr.FieldTitle, Ascending: true}}

	ms1, _ := freshFleet(t, newTestClock(), qcache.Config{TTL: time.Hour}, srcs)
	if _, err := ms1.Search(ctx, q); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := qcache.SaveWorkload(&file, ms1.Workload()); err != nil {
		t.Fatal(err)
	}
	workload, err := qcache.LoadWorkload(&file)
	if err != nil {
		t.Fatal(err)
	}

	ms2, _ := freshFleet(t, newTestClock(), qcache.Config{TTL: time.Hour}, srcs)
	if stats, err := ms2.Warm(ctx, workload, 1); err != nil || stats.Replayed != 1 {
		t.Fatalf("warm = %+v, %v; want 1 replayed", stats, err)
	}
	var tr obs.Trace
	if _, err := ms2.Search(ctx, q, WithTrace(&tr)); err != nil {
		t.Fatal(err)
	}
	if out, _ := tr.Snapshot().Find("cache").Attr("outcome"); out != qcache.Hit.String() {
		t.Errorf("the first repeat after the warm start was served %q, want a hit", out)
	}
}

// TestWarmCountsAnOlderWorkloadLineAsAnError: a line written before
// entries carried the whole query (filter and ranking text only) loads,
// carries no query, and its replay counts as an error — a cold start for
// that entry, not a failed warm start.
func TestWarmCountsAnOlderWorkloadLineAsAnError(t *testing.T) {
	old, err := qcache.LoadWorkload(strings.NewReader(
		`{"key":"k","ranking":"list((body-of-text \"databases\"))","max_results":20}` + "\n"))
	if err != nil || len(old) != 1 {
		t.Fatalf("loading an older line: %v, %d entries", err, len(old))
	}
	ms, _ := freshFleet(t, newTestClock(), qcache.Config{TTL: time.Hour}, []freshSource{{id: "s1"}})
	if stats, err := ms.Warm(context.Background(), old, 1); err != nil || stats.Errors != 1 || stats.Replayed != 0 {
		t.Fatalf("warm = %+v, %v; want 1 error, nothing replayed", stats, err)
	}
}
