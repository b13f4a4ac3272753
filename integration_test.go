package starts_test

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"starts"
)

// tools is every cmd/ binary, built once per test run into one directory
// that TestMain removes.
var tools struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tools.dir != "" {
		os.RemoveAll(tools.dir)
	}
	os.Exit(code)
}

// tool returns the path of one cmd/ binary, building ./cmd/... on first use.
func tool(t *testing.T, name string) string {
	t.Helper()
	tools.once.Do(func() {
		if tools.dir, tools.err = os.MkdirTemp("", "starts-cmd-"); tools.err != nil {
			return
		}
		if out, err := exec.Command("go", "build", "-o", tools.dir, "./cmd/...").CombinedOutput(); err != nil {
			tools.err = fmt.Errorf("building ./cmd/...: %v\n%s", err, out)
		}
	})
	if tools.err != nil {
		t.Fatal(tools.err)
	}
	return filepath.Join(tools.dir, name)
}

// serve runs startsd with args on a free port until the test ends and
// returns its base URL once its resource answers.
func serve(t *testing.T, args ...string) string {
	t.Helper()
	addr := freePort(t)
	server := exec.Command(tool(t, "startsd"), append([]string{"-addr", addr}, args...)...)
	if err := server.Start(); err != nil {
		t.Fatalf("startsd: %v", err)
	}
	t.Cleanup(func() {
		_ = server.Process.Kill()
		_ = server.Wait()
	})
	base := "http://" + addr
	waitReady(t, base+"/resource")
	return base
}

// freePort grabs an ephemeral TCP port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestCommandLineTools is the CLI smoke test: generate a corpus with
// startsgen, serve it with startsd, query one source with startsq, and
// metasearch across the resource with metasearch.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	startsgen := tool(t, "startsgen")
	startsq := tool(t, "startsq")
	metasearch := tool(t, "metasearch")

	// startsgen: corpus + workload files.
	corpusPath := filepath.Join(dir, "corpus.json")
	workloadPath := filepath.Join(dir, "workload.json")
	out, err := exec.Command(startsgen,
		"-out", corpusPath, "-workload", workloadPath,
		"-sources", "3", "-docs", "40", "-queries", "5", "-seed", "9",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("startsgen: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "3 sources, 120 documents") {
		t.Errorf("startsgen output: %s", out)
	}
	if _, err := os.Stat(workloadPath); err != nil {
		t.Fatalf("workload file missing: %v", err)
	}

	// startsd: serve the generated corpus.
	base := serve(t, "-corpus", corpusPath)

	// startsq: query one source directly.
	srcURL := fmt.Sprintf("%s/sources/src-00-databases", base)
	out, err = exec.Command(startsq,
		"-source", srcURL,
		"-ranking", `list((body-of-text "database"))`,
		"-max", "3",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("startsq: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "documents from src-00-databases") {
		t.Errorf("startsq output:\n%s", out)
	}

	// startsq -show metadata round trips through the SOIF decoder.
	out, err = exec.Command(startsq, "-source", srcURL, "-show", "metadata").CombinedOutput()
	if err != nil {
		t.Fatalf("startsq metadata: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "@SMetaAttributes{") {
		t.Errorf("startsq metadata output:\n%s", out)
	}

	// metasearch: full pipeline over the resource.
	out, err = exec.Command(metasearch,
		"-resources", base+"/resource",
		"-ranking", `list((body-of-text "database") (body-of-text "query"))`,
		"-select", "vsum", "-merge", "term-stats", "-max", "5",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("metasearch: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "selection (vGlOSS-Sum(0)):") || !strings.Contains(text, "contacted:") {
		t.Errorf("metasearch output:\n%s", text)
	}
	if !strings.Contains(text, "http://src-00-databases/") {
		t.Errorf("metasearch found no database documents:\n%s", text)
	}
}

func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s never became ready", url)
}

// TestExamplesRun executes every example program end to end.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke test builds binaries; skipped in -short")
	}
	examples := []struct{ name, mustContain string }{
		{"quickstart", "contacted sources:"},
		{"federation", "selection order:"},
		{"rankmerge", "merge strategy: term-stats"},
		{"multilingual", "Spanish query"},
		{"feedback", "relevance feedback"},
		{"hierarchy", "routed to:"},
	}
	for _, ex := range examples {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+ex.name)
			cmd.Env = os.Environ()
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s: %v\n%s", ex.name, err, out)
			}
			if !strings.Contains(string(out), ex.mustContain) {
				t.Errorf("example %s output missing %q:\n%s", ex.name, ex.mustContain, out)
			}
		})
	}
}

// TestInteractiveShell drives metasearch's shell (no query flags) with
// piped commands.
func TestInteractiveShell(t *testing.T) {
	if testing.Short() {
		t.Skip("shell smoke test builds binaries; skipped in -short")
	}
	base := serve(t, "-sources", "2", "-docs", "30", "-seed", "3", "-overlap", "0")

	script := strings.Join([]string{
		"sources",
		"summary src-00-databases",
		`select list((body-of-text "database"))`,
		`q list((body-of-text "database"))`,
		"stats",
		"meta src-01-medicine",
		"bogus command",
		"quit",
	}, "\n") + "\n"
	text := runMetasearch(t, script, "-resources", base+"/resource")
	for _, want := range []string{
		"harvested 2 sources",
		"src-00-databases",
		"documents 30",
		"contacted",
		`starts_source_query_seconds_count{source="src-00-databases"} 1`,
		"@SMetaAttributes{",
		`unknown command "bogus"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("shell output missing %q:\n%s", want, text)
		}
	}
}

// runMetasearch runs the metasearch binary with args and stdin, failing the
// test unless it exits cleanly, and returns its stdout and stderr.
func runMetasearch(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(tool(t, "metasearch"), args...)
	cmd.Stdin = strings.NewReader(stdin)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("metasearch %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestWarmFile drives -warm-file end to end: a one-shot run saves its
// workload on exit, the next run replays it, and a shell session saves
// its own through the workload saver when it quits.
func TestWarmFile(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-file test builds binaries; skipped in -short")
	}
	resource := serve(t, "-sources", "2", "-docs", "30", "-seed", "3") + "/resource"
	ranking := `list((body-of-text "database"))`
	warmed := func(path string) {
		t.Helper()
		entries, err := starts.LoadWorkloadFile(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		if len(entries) != 1 || !strings.Contains(entries[0].Ranking, "database") {
			t.Fatalf("workload %s = %+v, want the one database query", path, entries)
		}
	}

	oneShot := filepath.Join(t.TempDir(), "one-shot.jsonl")
	runMetasearch(t, "", "-resources", resource, "-warm-file", oneShot, "-ranking", ranking)
	warmed(oneShot)
	if out := runMetasearch(t, "", "-resources", resource, "-warm-file", oneShot, "-ranking", ranking); !strings.Contains(out, "warm start: replayed 1") {
		t.Errorf("second run did not replay the workload:\n%s", out)
	}

	shell := filepath.Join(t.TempDir(), "shell.jsonl")
	runMetasearch(t, "q "+ranking+"\nquit\n", "-resources", resource, "-warm-file", shell)
	warmed(shell)
}
