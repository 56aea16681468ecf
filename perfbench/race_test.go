//go:build race

package main

// raceEnabled reports a build with the race detector, which slows the
// in-process load generator past its lateness limit.
const raceEnabled = true
