package topk

import (
	"cmp"
	"math/rand"
	"sort"
	"testing"
)

type item struct {
	score float64
	id    int
}

func itemOrder(a, b item) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	return a.id - b.id
}

// TestSelectionMatchesFullSort pushes randomized streams (fixed seed)
// and checks the heap selects exactly the prefix a full sort produces,
// across k values below, at and above the stream length.
func TestSelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		items := make([]item, n)
		for i := range items {
			// Coarse scores force plenty of ties, exercising the id tiebreak.
			items[i] = item{score: float64(rng.Intn(10)), id: i}
		}
		for _, k := range []int{0, 1, 5, n / 2, n, n + 10} {
			h := New(k, itemOrder)
			for _, it := range items {
				h.Push(it)
			}
			got := h.Sorted()

			want := append([]item(nil), items...)
			sort.Slice(want, func(i, j int) bool { return itemOrder(want[i], want[j]) < 0 })
			if k < len(want) {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: got %d items, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: item %d = %+v, want %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestWorstTracksKthBest(t *testing.T) {
	h := New(3, itemOrder)
	for _, s := range []float64{5, 1, 9, 7, 3} {
		h.Push(item{score: s})
	}
	if !h.Full() {
		t.Fatal("heap should be full after 5 pushes with k=3")
	}
	if w := h.Worst(); w.score != 5 {
		t.Errorf("worst kept score = %v, want 5 (kept should be {9,7,5})", w.score)
	}
}

func TestZeroK(t *testing.T) {
	h := New(0, cmp.Compare[int])
	h.Push(1)
	if h.Len() != 0 || len(h.Sorted()) != 0 {
		t.Error("k=0 heap kept items")
	}
}

// TestSortedMatchesStableSort feeds runs of tied scores in shuffled order:
// Sorted's sort is not stable, so only the id tiebreak of a total order
// makes it return what a stable sort of the same items returns.
func TestSortedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		items := make([]item, rng.Intn(100))
		for i := range items {
			items[i] = item{score: float64(rng.Intn(3)), id: i}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		h := New(len(items), itemOrder)
		for _, it := range items {
			h.Push(it)
		}
		got := h.Sorted()
		want := append([]item(nil), items...)
		sort.SliceStable(want, func(i, j int) bool { return itemOrder(want[i], want[j]) < 0 })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: item %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
