//go:build !race

package core

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
