package index

import (
	"sync"
	"testing"

	"starts/internal/query"
)

// TestConcurrentFilterEval exercises filter evaluation in parallel with
// vocabulary-building operations (truncation scans build the sorted vocab
// lazily, and concurrent readers race to); run with -race.
func TestConcurrentFilterEval(t *testing.T) {
	ix := testIndex(t)
	expr, err := query.ParseFilter(`((body-of-text right-truncation "distribut") or (author phonetic "Ulman"))`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := ix.EvalFilter(expr, defaultOpts()); err != nil {
					t.Errorf("EvalFilter: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
