//go:build race

package sim_test

// raceEnabled shortens the long exactness loops under the race
// detector, which slows them tenfold.
const raceEnabled = true
