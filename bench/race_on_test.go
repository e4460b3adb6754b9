//go:build race

package bench

// raceEnabled: the race detector slows the children five- to tenfold,
// so the smoke test's time limit does not apply.
const raceEnabled = true
