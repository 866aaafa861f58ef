//go:build !race

// Package simtest is the test support packages under internal/ share. It is
// an ordinary package because a _test.go file cannot be imported.
package simtest

// RaceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are meaningless under its shadow-memory
// bookkeeping and skip themselves when it is set.
const RaceEnabled = false
