package operators

import (
	"math"

	"borgmoea/internal/rng"
)

// UNDX is Kita, Ono & Kobayashi's multi-parental unimodal normal
// distribution crossover. The first k−1 parents define the primary
// search subspace around their centroid; the last parent sets the
// scale of the orthogonal-complement perturbation. Borg's defaults:
// 10 parents, zeta 0.5, eta 0.35 (eta is divided by sqrt(n) at
// sampling time, as in the reference implementation).
type UNDX struct {
	Parents int
	Zeta    float64
	Eta     float64
}

// NewUNDX returns UNDX with Borg's defaults.
func NewUNDX() UNDX { return UNDX{Parents: 10, Zeta: 0.5, Eta: 0.35} }

func (op UNDX) Name() string   { return "undx" }
func (op UNDX) Arity() int     { return op.Parents }
func (op UNDX) Offspring() int { return 1 }

// Apply returns one offspring centered on the centroid of the first
// k−1 parents.
func (op UNDX) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	return applyOne(op, parents, lo, hi, r)
}

// Child writes the offspring centered on the centroid of the first k−1
// parents into child.
func (op UNDX) Child(child []float64, parents [][]float64, lo, hi []float64, r *rng.Source, s *Scratch) {
	checkParents(op.Name(), op.Arity(), parents, lo, hi)
	k := len(parents)
	n := len(parents[0])
	m := k - 1 // parents spanning the primary subspace

	s.g = grow(s.g, n)
	g := s.g
	centroidInto(g, parents[:m])

	// Primary directions d_i = x_i − g, orthonormalized to a basis of
	// the primary subspace; each contributes a Gaussian component
	// scaled by its own length (classic UNDX-m). A candidate is
	// written into the next free row and kept by extending basis over
	// it.
	copy(child, g)
	s.d = grow(s.d, n)
	d := s.d
	basis := s.basis[:0]
	for _, p := range parents[:m] {
		subInto(d, p, g)
		dLen := norm(d)
		if dLen < 1e-12 {
			continue
		}
		e := s.row(len(basis), n)
		copy(e, d)
		if orthogonalize(e, basis) < 1e-10 || !normalize(e) {
			continue
		}
		basis = append(basis, e)
		w := r.Norm() * op.Zeta * dLen
		for i := range child {
			child[i] += w * e[i]
		}
	}

	// Orthogonal complement: scale D is the distance from the last
	// parent to the primary subspace.
	subInto(d, parents[k-1], g)
	bigD := orthogonalize(d, basis)
	if bigD > 1e-12 && n > len(basis) {
		sigma := op.Eta / math.Sqrt(float64(n))
		for len(basis) < n {
			v := s.row(len(basis), n)
			for i := range v {
				v[i] = r.Norm()
			}
			if orthogonalize(v, basis) < 1e-10 || !normalize(v) {
				continue
			}
			basis = append(basis, v)
			w := r.Norm() * sigma * bigD
			for i := range child {
				child[i] += w * v[i]
			}
		}
	}
	s.basis = basis
	clamp(child, lo, hi)
}
