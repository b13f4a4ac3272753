// Package eval provides the retrieval-evaluation metrics the paper's
// quality harness (paper_test.go at the repository root) reads off the
// broker's answers: precision at a cutoff, answer-set overlap, Kendall's
// rank correlation, and the GlOSS Rn measure of source-selection quality.
package eval

import (
	"fmt"
	"sort"
)

// PrecisionAtK returns the fraction of the top k ranked items that are
// relevant. A rank shorter than k is evaluated over what is there.
func PrecisionAtK(ranked []string, relevant map[string]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	if len(ranked) < k {
		k = len(ranked)
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for _, id := range ranked[:k] {
		if relevant[id] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// Overlap returns |a ∩ b| / |a ∪ b| (Jaccard) for two item sets.
func Overlap(a, b []string) float64 {
	sa := map[string]bool{}
	for _, x := range a {
		sa[x] = true
	}
	inter, union := 0, len(sa)
	seen := map[string]bool{}
	for _, x := range b {
		if seen[x] {
			continue
		}
		seen[x] = true
		if sa[x] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1 // two empty sets are identical
	}
	return float64(inter) / float64(union)
}

// KendallTau computes Kendall's rank correlation between two orderings of
// the same item set, in [-1, 1]. Items present in only one ranking are
// ignored. Fewer than two common items yield an error.
func KendallTau(a, b []string) (float64, error) {
	posB := map[string]int{}
	for i, id := range b {
		posB[id] = i
	}
	var common []string
	for _, id := range a {
		if _, ok := posB[id]; ok {
			common = append(common, id)
		}
	}
	n := len(common)
	if n < 2 {
		return 0, fmt.Errorf("eval: need at least two common items for Kendall tau, have %d", n)
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// In a, common[i] precedes common[j] by construction.
			if posB[common[i]] < posB[common[j]] {
				concordant++
			} else {
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs), nil
}

// Rn is the GlOSS source-selection quality measure: the merit accumulated
// by visiting the first n sources of a proposed order, divided by the
// merit of the best possible n sources. merit maps source IDs to their
// true usefulness for the query (e.g. the number of relevant documents
// they hold). An ideal order achieves Rn = 1 for every n.
func Rn(order []string, merit map[string]float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	best := make([]float64, 0, len(merit))
	total := 0.0
	for _, m := range merit {
		best = append(best, m)
		total += m
	}
	if total == 0 {
		return 1 // no merit anywhere: any order is ideal
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(best)))
	ideal := 0.0
	for i := 0; i < n && i < len(best); i++ {
		ideal += best[i]
	}
	if ideal == 0 {
		return 1
	}
	got := 0.0
	for i := 0; i < n && i < len(order); i++ {
		got += merit[order[i]]
	}
	return got / ideal
}
