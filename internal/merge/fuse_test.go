package merge

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"starts/internal/attr"
	"starts/internal/result"
)

func randItems(rng *rand.Rand, n, urlSpace, sourceSpace int) []merged {
	items := make([]merged, n)
	for i := range items {
		d := &result.Document{
			RawScore: float64(rng.Intn(8)) / 4, // coarse: plenty of score ties
			Sources:  []string{fmt.Sprintf("S%d", rng.Intn(sourceSpace))},
			Fields: map[attr.Field]string{
				attr.FieldLinkage: fmt.Sprintf("http://x/%d", rng.Intn(urlSpace)),
			},
		}
		items[i] = merged{doc: d, score: d.RawScore, order: i}
	}
	return items
}

// referenceFuse is the pre-heap semantics: collapse duplicates, full
// stable sort by (score desc, arrival asc), then truncate.
func referenceFuse(items []merged, limit int) []*result.Document {
	full := fuse(items, 0)
	if limit > 0 && len(full) > limit {
		full = full[:limit]
	}
	return full
}

// cloneItems deep-copies the fuse working set: fuse mutates the
// documents it collapses, so the reference run needs its own documents.
func cloneItems(items []merged) []merged {
	out := make([]merged, len(items))
	for i, it := range items {
		d := *it.doc
		d.Sources = append([]string(nil), it.doc.Sources...)
		out[i] = merged{doc: &d, score: it.score, order: it.order}
	}
	return out
}

// TestFuseTopKMatchesFullSort is the satellite equivalence check: the
// bounded-heap rank must be exactly the truncated full-sort rank, on
// randomized inputs dense with duplicate linkages and tied scores.
func TestFuseTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(120)
		items := randItems(rng, n, 1+n/3, 4)
		limit := 1 + rng.Intn(20)
		want := referenceFuse(cloneItems(items), limit)
		got := fuse(items, limit)
		if len(got) != len(want) {
			t.Fatalf("trial %d n=%d limit=%d: got %d docs, want %d", trial, n, limit, len(got), len(want))
		}
		for i := range want {
			if got[i].Linkage() != want[i].Linkage() || got[i].RawScore != want[i].RawScore {
				t.Fatalf("trial %d limit=%d doc %d: got %s/%v, want %s/%v",
					trial, limit, i, got[i].Linkage(), got[i].RawScore, want[i].Linkage(), want[i].RawScore)
			}
			a := append([]string(nil), got[i].Sources...)
			b := append([]string(nil), want[i].Sources...)
			sort.Strings(a)
			sort.Strings(b)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("trial %d doc %d: sources %v, want %v", trial, i, a, b)
			}
		}
	}
}

// TestFuseLateDuplicateSurvivesLimit pins the collapse-before-select
// order: a duplicate arriving beyond the limit can still promote its
// document into the top ranks.
func TestFuseLateDuplicateSurvivesLimit(t *testing.T) {
	mk := func(url string, score float64, order int) merged {
		return merged{
			doc: &result.Document{
				RawScore: score,
				Sources:  []string{fmt.Sprintf("S%d", order)},
				Fields:   map[attr.Field]string{attr.FieldLinkage: url},
			},
			score: score,
			order: order,
		}
	}
	items := []merged{
		mk("http://x/a", 0.5, 0),
		mk("http://x/b", 0.4, 1),
		mk("http://x/c", 0.3, 2),
		// Late duplicate of c with the winning score: must collapse into c
		// and lift it to rank 1 even with limit 2.
		mk("http://x/c", 0.9, 3),
	}
	out := fuse(items, 2)
	if len(out) != 2 {
		t.Fatalf("fused %d docs, want 2", len(out))
	}
	if out[0].Linkage() != "http://x/c" || out[0].RawScore != 0.9 {
		t.Fatalf("rank 1 = %s/%v, want http://x/c/0.9", out[0].Linkage(), out[0].RawScore)
	}
	if len(out[0].Sources) != 2 {
		t.Fatalf("collapsed sources = %v, want both attributions", out[0].Sources)
	}
	if out[1].Linkage() != "http://x/a" {
		t.Fatalf("rank 2 = %s, want http://x/a", out[1].Linkage())
	}
}

// TestAppendMissingSetPath exercises the seen-set branch above the
// threshold against the quadratic semantics: order-preserving union.
func TestAppendMissingSetPath(t *testing.T) {
	var dst, add []string
	for i := 0; i < appendMissingSetThreshold; i++ {
		dst = append(dst, fmt.Sprintf("S%d", i))
	}
	// Overlap half, extend half — the combined length forces the set path.
	for i := appendMissingSetThreshold / 2; i < appendMissingSetThreshold+5; i++ {
		add = append(add, fmt.Sprintf("S%d", i))
	}
	got := appendMissing(dst, add)
	if len(got) != appendMissingSetThreshold+5 {
		t.Fatalf("union size %d, want %d", len(got), appendMissingSetThreshold+5)
	}
	for i, s := range got {
		if want := fmt.Sprintf("S%d", i); s != want {
			t.Fatalf("union[%d] = %s, want %s (order must be preserved)", i, s, want)
		}
	}
	// Duplicates inside add collapse too.
	got = appendMissing(nil, append(add, add...))
	seen := map[string]bool{}
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate %s survived", s)
		}
		seen[s] = true
	}
}
