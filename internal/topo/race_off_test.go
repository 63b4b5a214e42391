//go:build !race

package topo

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
