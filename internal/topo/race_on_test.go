//go:build race

package topo

// raceEnabled reports a -race build, which allocates more per growth
// step of a slab than the plain build does.
const raceEnabled = true
