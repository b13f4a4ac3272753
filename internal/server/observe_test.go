package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"starts/internal/client"
	"starts/internal/obs"
	"starts/internal/query"
)

func TestMetricsEndpoint(t *testing.T) {
	for _, face := range faces {
		t.Run(face, func(t *testing.T) { testMetricsEndpoint(t, face) })
	}
}

func testMetricsEndpoint(t *testing.T, face string) {
	ts, id := serveFace(t, face)
	ctx := context.Background()
	hc := client.NewClient(nil)
	conns, err := hc.Discover(ctx, ts.URL+"/resource")
	if err != nil {
		t.Fatal(err)
	}
	q := query.New()
	if q.Ranking, err = query.ParseRanking(`list((body-of-text "distributed"))`); err != nil {
		t.Fatal(err)
	}
	if _, err := conns[0].Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	// An unknown source produces a counted 404.
	resp, err := http.Get(ts.URL + "/sources/nope/metadata")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown source status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		`starts_server_seconds_count{route="resource"} 1`,
		`starts_server_errors_total{route="metadata",code="404"} 1`,
		`starts_server_query_docs_total{source="` + id + `"}`,
		`starts_server_seconds_count{route="query"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestLastTracesEndpoint(t *testing.T) {
	for _, face := range faces {
		t.Run(face, func(t *testing.T) { testLastTracesEndpoint(t, face) })
	}
}

func testLastTracesEndpoint(t *testing.T, face string) {
	ts, id := serveFace(t, face)
	q := query.New()
	var err error
	if q.Ranking, err = query.ParseRanking(`list((body-of-text "distributed"))`); err != nil {
		t.Fatal(err)
	}
	// The plain /query route: its trace is decode → search → encode.
	if _, err := client.NewClient(nil).Query(context.Background(), ts.URL+"/sources/"+id+"/query", q); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/last-traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{`trace "query ` + id + `"`, "decode", "search [" + id + "]", "encode", "docs="} {
		if !strings.Contains(out, want) {
			t.Errorf("/debug/last-traces missing %q:\n%s", want, out)
		}
	}
}

func TestServerSharedRegistryOption(t *testing.T) {
	_, res := startTestServer(t)
	reg := obs.NewRegistry()
	srv := New(res, "http://example", WithMetrics(reg))
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/resource", nil))
	if got := reg.Histogram(obs.L("starts_server_seconds", "route", "resource")).Count(); got != 1 {
		t.Errorf("shared registry counted %d /resource requests, want 1", got)
	}
}
