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

import (
	"fmt"
	"math"
)

// Solution is one candidate: decision variables plus, once evaluated,
// objective values (and constraint violations if the problem has
// constraints; violation 0 means feasible).
//
// Accept takes ownership. Clone a solution to keep it. A solution a
// Borg's Suggest returned belongs to that Borg once Accept (or
// InjectEvaluated) is called with it: when it is in neither the Borg's
// population nor its archive, the Borg may rewrite it as a later
// offspring. Solutions the caller built, clones and migrants are never
// rewritten.
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

	// owner marks the Borg that minted the solution, nil for any
	// other; refs counts its memberships in that Borg's population and
	// archive.
	owner *ownerMark
	refs  uint8
	// results backs Objs and Constrs once written through resultsFor; it
	// outlives a release, so a reused solution evaluates in place.
	results []float64
}

// Evaluated reports whether objectives have been filled in.
func (s *Solution) Evaluated() bool { return s.Objs != nil }

// SetResult makes s evaluated to copies of objs and constrs (Constrs
// nil when constrs is empty), written into storage s keeps across
// reuse.
func (s *Solution) SetResult(objs, constrs []float64) {
	o, c := s.resultsFor(len(objs), len(constrs))
	copy(o, objs)
	copy(c, constrs)
}

// resultsFor points Objs at nobj zeroed values and Constrs at ncon
// more (nil when ncon is 0), growing the storage they share only when
// it is too small, and returns them.
func (s *Solution) resultsFor(nobj, ncon int) (objs, constrs []float64) {
	n := nobj + ncon
	if cap(s.results) < n {
		s.results = make([]float64, n)
	}
	s.results = s.results[:n]
	clear(s.results)
	s.Objs, s.Constrs = s.results[:nobj:nobj], nil
	if ncon > 0 {
		s.Constrs = s.results[nobj:n:n]
	}
	return s.Objs, s.Constrs
}

// freeList holds the storage of the solutions one Borg minted that
// have left both its population and its archive, for Suggest and
// restart to reuse before they allocate. Reuse is last in, first out,
// a function of the run's own sequence of operations: no address and
// no collector decides it, so a run stays deterministic. The Borg's
// population and archive report every solution that enters or leaves
// them; a standalone Population or Archive has a nil list and counts
// nothing.
type freeList struct {
	sols []*Solution
	mark *ownerMark // the owner of every solution the Borg mints
}

// ownerMark identifies one Borg's solutions. It holds nothing, so a
// comparison of two solutions by value (reflect.DeepEqual) never
// reaches the Borg, and it has a nonzero size, so no two Borgs share
// one.
type ownerMark struct{ _ byte }

// enter counts one more membership of s, if the list's Borg minted it.
func (f *freeList) enter(s *Solution) {
	if f != nil && s.owner == f.mark {
		s.refs++
	}
}

// leave counts one membership of s fewer and releases it if that was
// its last.
func (f *freeList) leave(s *Solution) {
	if f != nil && s.owner == f.mark {
		s.refs--
		f.release(s)
	}
}

// release puts s on the list if the list's Borg minted it and it is in
// neither the population nor the archive. A released solution is
// unevaluated; it keeps its Vars, and its result storage out of sight,
// for the next offspring. In poisonsolutions builds both are
// overwritten with NaN.
func (f *freeList) release(s *Solution) {
	if s.owner != f.mark || s.refs != 0 {
		return
	}
	if poisonSolutions {
		for i := range s.Vars {
			s.Vars[i] = math.NaN()
		}
		kept := s.results[:cap(s.results)]
		for i := range kept {
			kept[i] = math.NaN()
		}
	}
	s.Objs, s.Constrs, s.results = nil, nil, s.results[:0]
	f.sols = append(f.sols, s)
}

// get takes the most recently released solution off the list, or
// returns nil.
func (f *freeList) get() *Solution {
	n := len(f.sols)
	if n == 0 {
		return nil
	}
	s := f.sols[n-1]
	f.sols[n-1] = nil
	f.sols = f.sols[:n-1]
	return s
}

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
