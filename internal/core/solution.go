// Package core implements the Borg multiobjective evolutionary
// algorithm (Hadka & Reed 2013): a steady-state MOEA with an
// ε-dominance archive, ε-progress-triggered restarts with adaptive
// population sizing, and an auto-adaptive ensemble of six variation
// operators. The implementation is deliberately structured as a
// suggest/accept state machine (Suggest produces the next offspring to
// evaluate, Accept folds an evaluated offspring back in) so the same
// core drives the serial algorithm, the asynchronous master-slave
// driver, and the synchronous generational driver in
// internal/parallel.
package core

import "fmt"

// Solution is one candidate: decision variables plus, once evaluated,
// objective values (and constraint violations if the problem has
// constraints; violation 0 means feasible).
type Solution struct {
	// Vars are the decision variables.
	Vars []float64
	// Objs are the objective values; nil until evaluated.
	Objs []float64
	// Constrs are constraint violation magnitudes (>= 0); empty for
	// unconstrained problems.
	Constrs []float64
	// Operator is the index of the ensemble operator that produced
	// this solution, or -1 for random/injected solutions. Used for
	// the archive-contribution credit that drives operator
	// adaptation.
	Operator int
	// ID is a unique identifier assigned by the algorithm, used by
	// the parallel drivers to match results to requests.
	ID uint64
}

// Evaluated reports whether objectives have been filled in.
func (s *Solution) Evaluated() bool { return s.Objs != nil }

// Violation returns the total constraint violation (0 if feasible).
func (s *Solution) Violation() float64 {
	v := 0.0
	for _, c := range s.Constrs {
		if c > 0 {
			v += c
		} else {
			v -= c
		}
	}
	return v
}

// Clone returns a deep copy of the solution.
func (s *Solution) Clone() *Solution {
	c := &Solution{Operator: s.Operator, ID: s.ID}
	c.Vars = append([]float64(nil), s.Vars...)
	if s.Objs != nil {
		c.Objs = append([]float64(nil), s.Objs...)
	}
	if s.Constrs != nil {
		c.Constrs = append([]float64(nil), s.Constrs...)
	}
	return c
}

func (s *Solution) String() string {
	return fmt.Sprintf("Solution{id=%d op=%d objs=%v}", s.ID, s.Operator, s.Objs)
}

// Compare performs constraint-aware Pareto comparison: -1 if a is
// better (dominates), +1 if b is better, 0 if mutually nondominated or
// equal. Feasible solutions beat infeasible ones; between infeasible
// solutions the smaller total violation wins. Both solutions must be
// evaluated.
func Compare(a, b *Solution) int {
	av, bv := a.Violation(), b.Violation()
	if av > 0 || bv > 0 {
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		// Equal nonzero violation: fall through to Pareto comparison.
	}
	return compareObjs(a.Objs, b.Objs)
}

// compareObjs is the Pareto half of Compare on bare objective vectors
// (minimisation): -1 if a dominates b, +1 if b dominates a, else 0.
func compareObjs(a, b []float64) int {
	aBetter, bBetter := false, false
	for i := range a {
		switch {
		case a[i] < b[i]:
			aBetter = true
		case a[i] > b[i]:
			bBetter = true
		}
	}
	switch {
	case aBetter && !bBetter:
		return -1
	case bBetter && !aBetter:
		return 1
	default:
		return 0
	}
}

// Dominates reports whether a dominates b under the constraint-aware
// comparison.
func Dominates(a, b *Solution) bool { return Compare(a, b) == -1 }
