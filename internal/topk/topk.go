// Package topk provides bounded top-k selection: a fixed-capacity heap
// that keeps the k best items of a stream in O(n log k) instead of
// sorting everything in O(n log n). The engine's result sorting, the
// index's ranked traversal and the metasearcher's rank fusion all cap
// their output at the query's max-docs, so none of them needs a total
// order over more than k items.
package topk

import "slices"

// Heap keeps the k best items seen so far under an ordering: cmp(a, b)
// is negative when a outranks b, as for slices.SortFunc. The worst kept
// item sits at the root, so a full heap rejects a non-qualifying offer
// after one comparison. cmp must be a strict weak ordering; for
// deterministic output it should be total (break ties on a unique key),
// since Sorted's sort is not stable.
type Heap[T any] struct {
	k     int
	cmp   func(a, b T) int
	items []T
}

// New returns a heap selecting the k best items by cmp.
func New[T any](k int, cmp func(a, b T) int) *Heap[T] {
	if k < 0 {
		k = 0
	}
	c := k
	if c > 1024 {
		c = 1024 // cap pre-allocation for huge k
	}
	return &Heap[T]{k: k, cmp: cmp, items: make([]T, 0, c)}
}

// Len returns the number of items currently kept.
func (h *Heap[T]) Len() int { return len(h.items) }

// Full reports whether k items are kept, i.e. whether Worst is valid
// and further offers must outrank it.
func (h *Heap[T]) Full() bool { return len(h.items) >= h.k }

// Worst returns the k-th best item kept; only valid when Full.
func (h *Heap[T]) Worst() T { return h.items[0] }

// Push offers an item; it is kept only while it is among the k best.
func (h *Heap[T]) Push(x T) {
	if h.k == 0 {
		return
	}
	if len(h.items) < h.k {
		h.items = append(h.items, x)
		i := len(h.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h.cmp(h.items[p], h.items[i]) >= 0 {
				break
			}
			h.items[i], h.items[p] = h.items[p], h.items[i]
			i = p
		}
		return
	}
	if h.cmp(x, h.items[0]) >= 0 {
		return
	}
	h.items[0] = x
	h.siftDown()
}

// siftDown restores the worst-at-root invariant after a root
// replacement: the root sinks below any child it outranks.
func (h *Heap[T]) siftDown() {
	n := len(h.items)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && h.cmp(h.items[w], h.items[l]) < 0 {
			w = l
		}
		if r < n && h.cmp(h.items[w], h.items[r]) < 0 {
			w = r
		}
		if w == i {
			return
		}
		h.items[i], h.items[w] = h.items[w], h.items[i]
		i = w
	}
}

// Sorted drains the heap and returns the kept items best-first. The
// heap is empty afterwards.
func (h *Heap[T]) Sorted() []T {
	out := h.items
	h.items = nil
	slices.SortFunc(out, h.cmp)
	return out
}
