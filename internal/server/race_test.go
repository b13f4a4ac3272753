//go:build race

package server

// raceBuild reports a -race build, whose allocation counts are not the
// program's: the allocation budgets skip under it.
const raceBuild = true
