package qcache

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind. The
// cache's own goroutines are stale-while-revalidate refreshes and Warm's
// replay workers; both must have ended by the time the
// tests that started them return, give or take a moment to unwind. A
// fuzzing run is not checked: the fuzz engine keeps a signal-handling
// goroutine of its own to the end.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "qcache tests leaked goroutines: %d running, baseline %d\n%s\n",
				n, baseline, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}
