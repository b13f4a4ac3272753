//go:build race

package result

// raceBuild reports a -race build, in which slices.Grow allocates twice:
// allocation budgets that count the decoder's growth allow for it.
const raceBuild = true
