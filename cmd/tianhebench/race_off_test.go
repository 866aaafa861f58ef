//go:build !race

package main

// raceEnabled reports whether the race detector instruments this build: the
// two-run repeat of the simulator workloads is single-goroutine arithmetic
// that costs ten seconds under it.
const raceEnabled = false
