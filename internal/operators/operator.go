// Package operators implements the six real-valued variation operators
// the Borg MOEA auto-adapts among — simulated binary crossover (SBX),
// differential evolution (DE), parent-centric crossover (PCX), simplex
// crossover (SPX), unimodal normal distribution crossover (UNDX), and
// uniform mutation (UM) — plus polynomial mutation (PM), which Borg
// applies after each recombination. Parameterizations follow the Borg
// paper's defaults (Hadka & Reed 2013 / MOEA Framework).
//
// Operators work on raw decision-variable vectors so they are usable
// both by the Borg core and standalone.
package operators

import (
	"fmt"
	"math"

	"borgmoea/internal/rng"
)

// Operator produces offspring decision vectors from parent vectors.
type Operator interface {
	// Name returns a short identifier, e.g. "sbx+pm".
	Name() string
	// Arity returns the number of parents required.
	Arity() int
	// Offspring returns the number of children Apply returns.
	Offspring() int
	// Apply returns Offspring() children in fresh storage. Parents
	// must contain exactly Arity() vectors of equal length matching
	// lo/hi; the parents are not modified. Offspring are clamped to
	// [lo, hi].
	Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64
	// Child writes Apply's first child into child (len(lo) elements,
	// not aliasing a parent) without building the others: it makes
	// every draw Apply makes, in the same order, so the child and r's
	// state afterwards are bit-identical to Apply's. s holds the
	// working vectors, so a warm Child allocates nothing.
	Child(child []float64, parents [][]float64, lo, hi []float64, r *rng.Source, s *Scratch)
}

// Scratch is Child's working storage — centroid and direction
// vectors, work and basis rows, SPX vertices — reused across calls.
// The zero value is ready; one Scratch serves every operator and size,
// growing to the largest seen. It is not safe for concurrent use.
type Scratch struct {
	g, d  []float64
	rows  [][]float64
	basis [][]float64
}

// grow returns v resized to n elements, reallocating if too small. The
// contents are stale: callers overwrite every element.
func grow(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// row returns working row k with n elements (stale contents).
func (s *Scratch) row(k, n int) []float64 {
	for len(s.rows) <= k {
		s.rows = append(s.rows, nil)
	}
	s.rows[k] = grow(s.rows[k], n)
	return s.rows[k]
}

// applyOne is Apply for an operator with one child: Child into fresh
// storage, so the operator's arithmetic exists once.
func applyOne(op Operator, parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	child := make([]float64, len(lo))
	op.Child(child, parents, lo, hi, r, new(Scratch))
	return [][]float64{child}
}

// clamp snaps each variable of x into [lo, hi].
func clamp(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		} else if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

// checkParents validates the Apply/Child contract; operators call it
// first. It takes the name and arity rather than the operator so the
// hot path boxes nothing into an interface.
func checkParents(name string, arity int, parents [][]float64, lo, hi []float64) {
	if len(parents) != arity {
		panic(fmt.Sprintf("operators: %s requires %d parents, got %d",
			name, arity, len(parents)))
	}
	n := len(lo)
	if len(hi) != n {
		panic("operators: bounds length mismatch")
	}
	for _, p := range parents {
		if len(p) != n {
			panic(fmt.Sprintf("operators: %s parent length %d != %d variables",
				name, len(p), n))
		}
	}
}

// clone returns a copy of x.
func clone(x []float64) []float64 {
	return append([]float64(nil), x...)
}

// centroidInto writes the mean of the vectors into g.
func centroidInto(g []float64, vs [][]float64) {
	clear(g)
	for _, v := range vs {
		for i, x := range v {
			g[i] += x
		}
	}
	inv := 1 / float64(len(vs))
	for i := range g {
		g[i] *= inv
	}
}

// subInto writes a - b into d.
func subInto(d, a, b []float64) {
	for i := range a {
		d[i] = a[i] - b[i]
	}
}

// dot returns the inner product.
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// norm returns the Euclidean length.
func norm(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}

// orthogonalize removes from v its components along each unit vector
// in basis (modifying v in place) and returns v's remaining length.
func orthogonalize(v []float64, basis [][]float64) float64 {
	for _, e := range basis {
		c := dot(v, e)
		for i := range v {
			v[i] -= c * e[i]
		}
	}
	return norm(v)
}

// normalize scales v to unit length in place and reports success
// (false if v is ~zero).
func normalize(v []float64) bool {
	n := norm(v)
	if n < 1e-12 {
		return false
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return true
}
