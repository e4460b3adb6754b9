package metrics

import "strings"

// Hypervolume reference-point conventions, shared by every consumer
// (cmd/borg, cmd/borgexp, internal/experiment, the quality sampler in
// internal/obs). Before these helpers each site assembled its own
// reference point with a hand-rolled loop and a magic scale; hoisting
// the convention here keeps the reported hypervolumes comparable
// across tools.

// DefaultRefScale is the conventional reference coordinate for
// problems whose Pareto fronts live in the unit box (DTLZ, UF):
// slightly outside the front so extremal points still contribute
// volume.
const DefaultRefScale = 1.1

// DefaultHVSamples is the conventional Monte Carlo sample count for
// HypervolumeMC when an exact computation is too expensive.
const DefaultHVSamples = 100000

// RefScale returns the per-problem-family reference coordinate: 2.0
// for the ZDT family (f2 can exceed 1 well into a run), otherwise
// DefaultRefScale.
func RefScale(problemName string) float64 {
	if strings.HasPrefix(problemName, "ZDT") {
		return 2.0
	}
	return DefaultRefScale
}

// RefPoint returns the uniform m-dimensional reference point
// {scale, ..., scale}. A scale of 0 means DefaultRefScale.
func RefPoint(m int, scale float64) []float64 {
	if scale == 0 {
		scale = DefaultRefScale
	}
	ref := make([]float64, m)
	for i := range ref {
		ref[i] = scale
	}
	return ref
}

// RefPointFor returns the conventional reference point for a named
// problem: RefPoint(m, RefScale(problemName)).
func RefPointFor(problemName string, m int) []float64 {
	return RefPoint(m, RefScale(problemName))
}
