package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"starts/internal/query"
)

// TestDeepNestingIs400 pins that an expression nested past the parser's
// bound is an ordinary bad request on every face that decodes queries —
// and that the server is still there afterwards. The bodies are as long
// as each route admits: a parser recursing once per '(' overflows the
// goroutine stack on 8 MiB of them (inside query-batch's size limit),
// and a stack overflow is fatal — no recover catches it, the process
// ends.
func TestDeepNestingIs400(t *testing.T) {
	ts, _ := startTestServer(t)
	soifQuery := func(expr string) string {
		return fmt.Sprintf("@SQuery{\nVersion{10}: STARTS 1.0\nFilterExpression{%d}: %s\n}\n", len(expr), expr)
	}
	jsonQuery := func(expr string) string {
		return `{"type":"SQuery","attributes":[{"name":"Version","value":"STARTS 1.0"},` +
			`{"name":"FilterExpression","value":"` + expr + `"}]}`
	}
	shapes := []struct {
		name string
		expr func(levels int) string
		unit int // bytes per level
	}{
		{"parens", func(n int) string { return strings.Repeat("(", n) }, 1},
		{"lists", func(n int) string { return strings.Repeat("list(", n) }, 5},
		{"right-nested and", func(n int) string {
			return strings.Repeat("(``a'' and ", n) + "``b''" + strings.Repeat(")", n)
		}, 12},
	}
	faces := []struct {
		route, contentType string
		budget             int // expression bytes, inside the route's size limit
		wrap               func(string) string
	}{
		{"query", ContentType, maxQueryBytes - 1024, soifQuery},
		{"query", JSONContentType, maxQueryBytes - 1024, jsonQuery},
		{"query-batch", ContentType, 8 << 20, soifQuery},
	}
	healthy := batchBody(t, []*query.Query{rankQuery(t, `list((any "distributed"))`)}).String()
	post := func(route, contentType, body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/sources/Source-1/"+route, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, f := range faces {
		for _, sh := range shapes {
			name := fmt.Sprintf("%s %s %s", f.route, f.contentType, sh.name)
			if got := post(f.route, f.contentType, f.wrap(sh.expr(f.budget/sh.unit))); got != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", name, got)
			}
			if got := post(f.route, ContentType, healthy); got != http.StatusOK {
				t.Errorf("healthy %s after %s: status %d, want 200", f.route, name, got)
			}
		}
	}
}
