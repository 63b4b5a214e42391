//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random quarter of what it is handed, so pooled tables are
// rebuilt at random and allocation totals are not steady.
const raceEnabled = true
