// Package problems implements the multiobjective test problems the
// paper evaluates — the 5-objective DTLZ2 (separable, "easy") and UF11
// (a rotated and scaled DTLZ2 variant, non-separable, "hard") — plus
// the rest of the DTLZ family for testing, analytic reference fronts,
// and the controlled-evaluation-delay machinery the experiment design
// relies on.
package problems

import "fmt"

// Problem is a real-valued, box-constrained multiobjective
// minimization problem. Implementations must be safe for concurrent
// Evaluate calls (they hold no mutable state).
type Problem interface {
	// Name returns a short identifier such as "DTLZ2_5".
	Name() string
	// NumVars returns the number of decision variables.
	NumVars() int
	// NumObjs returns the number of objectives (all minimized).
	NumObjs() int
	// Bounds returns the lower and upper variable bounds; callers
	// must not modify the returned slices.
	Bounds() (lo, hi []float64)
	// Evaluate computes the objectives of vars into objs.
	// len(vars) must equal NumVars() and len(objs) NumObjs().
	Evaluate(vars, objs []float64)
}

// Constrained is a Problem with inequality constraints. Violations
// are reported as non-negative magnitudes (0 = satisfied); the Borg
// core applies constraint-dominance using their sum.
type Constrained interface {
	Problem
	// NumConstraints returns the number of constraints.
	NumConstraints() int
	// EvaluateWithConstraints computes objectives and constraint
	// violations. len(constrs) must equal NumConstraints().
	EvaluateWithConstraints(vars, objs, constrs []float64)
}

// NumConstraints returns p's constraint count: NumConstraints() for a
// Constrained problem, 0 otherwise.
func NumConstraints(p Problem) int {
	if cp, ok := p.(Constrained); ok {
		return cp.NumConstraints()
	}
	return 0
}

// checkEvalArgs validates an Evaluate call's slice lengths.
func checkEvalArgs(p Problem, vars, objs []float64) {
	if len(vars) != p.NumVars() {
		panic(fmt.Sprintf("problems: %s given %d vars, want %d", p.Name(), len(vars), p.NumVars()))
	}
	if len(objs) != p.NumObjs() {
		panic(fmt.Sprintf("problems: %s given %d obj slots, want %d", p.Name(), len(objs), p.NumObjs()))
	}
}

// unitBounds returns [0,1]^n bounds.
func unitBounds(n int) (lo, hi []float64) {
	lo = make([]float64, n)
	hi = make([]float64, n)
	for i := range hi {
		hi[i] = 1
	}
	return lo, hi
}
