//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own account, so allocation pins are skipped under it.
const raceEnabled = true
