package core

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"starts/internal/qcache"
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
