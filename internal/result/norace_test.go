//go:build !race

package result

const raceBuild = false
