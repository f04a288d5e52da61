//go:build !race

package simpoint

// raceEnabled reports whether the tests run under the race detector,
// which allocates on its own and so defeats the allocation checks.
const raceEnabled = false
