package problems

import (
	"math"

	"borgmoea/internal/rng"
)

// RandomRotation returns a deterministic n×n random orthogonal matrix
// (uniform w.r.t. Haar measure) generated by Gram-Schmidt
// orthonormalization of a seeded Gaussian matrix. It is the stand-in
// for the CEC 2009 suite's published rotation data (see DESIGN.md §2):
// any fixed orthogonal rotation yields the same non-separability
// property UF11 exists to provide.
func RandomRotation(n int, seed uint64) [][]float64 {
	r := rng.New(seed)
	m := make([][]float64, n)
	for i := range m {
		row := make([]float64, n)
		for j := range row {
			row[j] = r.Norm()
		}
		m[i] = row
	}
	// Modified Gram-Schmidt on the rows.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			c := dotVec(m[i], m[j])
			for k := range m[i] {
				m[i][k] -= c * m[j][k]
			}
		}
		nm := normVec(m[i])
		for nm < 1e-10 {
			// Astronomically unlikely rank deficiency: redraw the row.
			for k := range m[i] {
				m[i][k] = r.Norm()
			}
			for j := 0; j < i; j++ {
				c := dotVec(m[i], m[j])
				for k := range m[i] {
					m[i][k] -= c * m[j][k]
				}
			}
			nm = normVec(m[i])
		}
		inv := 1 / nm
		for k := range m[i] {
			m[i][k] *= inv
		}
	}
	return m
}

// MatVec computes y = M·x.
func MatVec(m [][]float64, x []float64) []float64 {
	y := make([]float64, len(m))
	for i, row := range m {
		y[i] = dotVec(row, x)
	}
	return y
}

func dotVec(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func normVec(a []float64) float64 {
	return math.Sqrt(dotVec(a, a))
}
