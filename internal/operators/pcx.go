package operators

import (
	"math"

	"borgmoea/internal/rng"
)

// PCX is Deb, Joshi & Anand's parent-centric crossover. The offspring
// is distributed around the first parent (Borg centers variation on
// the solution selected from the archive), stretched along the
// parent-to-centroid direction by Zeta and spread across the
// orthogonal subspace by Eta, scaled by the mean perpendicular
// distance of the other parents. Borg's defaults: 10 parents,
// eta = zeta = 0.1.
type PCX struct {
	Parents int
	Eta     float64
	Zeta    float64
}

// NewPCX returns PCX with Borg's defaults.
func NewPCX() PCX { return PCX{Parents: 10, Eta: 0.1, Zeta: 0.1} }

func (op PCX) Name() string   { return "pcx" }
func (op PCX) Arity() int     { return op.Parents }
func (op PCX) Offspring() int { return 1 }

// Apply returns one offspring centered on parents[0].
func (op PCX) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	return applyOne(op, parents, lo, hi, r)
}

// Child writes the offspring centered on parents[0] into child.
func (op PCX) Child(child []float64, parents [][]float64, lo, hi []float64, r *rng.Source, s *Scratch) {
	checkParents(op.Name(), op.Arity(), parents, lo, hi)
	n := len(parents[0])
	s.g = grow(s.g, n)
	g := s.g
	centroidInto(g, parents)

	// Principal direction: index parent minus centroid.
	s.d = grow(s.d, n)
	d := s.d
	subInto(d, parents[0], g)
	dLen := norm(d)

	copy(child, parents[0])
	if dLen < 1e-12 {
		// Degenerate: parents collapsed onto the centroid along the
		// index direction; fall back to an isotropic Gaussian wobble
		// of Eta scale so the operator still explores.
		for i := range child {
			child[i] += r.Norm() * op.Eta * (hi[i] - lo[i]) * 0.01
		}
		clamp(child, lo, hi)
		return
	}

	dHat := s.row(0, n)
	copy(dHat, d)
	normalize(dHat)

	// Mean perpendicular distance of the other parents to the dHat
	// line through g, with row 1 as the work vector until the basis
	// below claims it.
	v := s.row(1, n)
	dBar := 0.0
	counted := 0
	for _, p := range parents[1:] {
		subInto(v, p, g)
		along := dot(v, dHat)
		perp2 := dot(v, v) - along*along
		if perp2 > 0 {
			dBar += math.Sqrt(perp2)
		}
		counted++
	}
	if counted > 0 {
		dBar /= float64(counted)
	}

	// Orthonormal basis of the subspace perpendicular to dHat, built
	// by Gram-Schmidt from the remaining parent directions and, if
	// rank-deficient, random vectors. A candidate is written into the
	// next free row and kept by extending basis over it.
	basis := append(s.basis[:0], dHat)
	for _, p := range parents[1:] {
		if len(basis) >= n {
			break
		}
		v := s.row(len(basis), n)
		subInto(v, p, g)
		if orthogonalize(v, basis) > 1e-10 && normalize(v) {
			basis = append(basis, v)
		}
	}
	for len(basis) < n {
		v := s.row(len(basis), n)
		for i := range v {
			v[i] = r.Norm()
		}
		if orthogonalize(v, basis) > 1e-10 && normalize(v) {
			basis = append(basis, v)
		}
	}
	s.basis = basis

	// Offspring = parent + wζ·d + Σ wη·D̄·e_j over the perpendicular
	// basis vectors.
	wz := r.Norm() * op.Zeta
	for i := range child {
		child[i] += wz * d[i]
	}
	for _, e := range basis[1:] {
		we := r.Norm() * op.Eta * dBar
		for i := range child {
			child[i] += we * e[i]
		}
	}
	clamp(child, lo, hi)
}
