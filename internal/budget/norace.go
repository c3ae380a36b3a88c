//go:build !race

package budget

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = false
