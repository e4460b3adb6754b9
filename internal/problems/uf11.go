package problems

import (
	"fmt"
	"math"
)

// UF11 is the CEC 2009 competition's R2_DTLZ2_M5: a 5-objective DTLZ2
// whose decision variables are rotated and scaled to introduce
// dependencies between variables, defeating coordinate-wise search.
// The paper uses it as the "hard, non-separable" counterpart of DTLZ2.
//
// Construction (see DESIGN.md §2 for the substitution rationale —
// the official rotation data files are replaced by a deterministic
// seeded random orthogonal matrix with the same structure):
//
//	z = Λ·R·x + 0.5
//
// where R is orthogonal, Λ = diag(λ_1..λ_n) with λ log-spaced in
// [1, MaxScale], and z is evaluated by DTLZ2. Position components of z
// falling outside [0,1] are clamped, with the violation added to the
// distance function g so infeasible-side excursions are penalized
// smoothly. The decision box [-L, L]^n with L = ‖(0.5,…,0.5)‖ = √n/2
// (divided by the λ scaling) is large enough that the entire Pareto
// front remains attainable; the front geometry is the DTLZ2 unit
// sphere octant.
type UF11 struct {
	m        int
	n        int
	rot      [][]float64
	scale    []float64
	lo, hi   []float64
	maxScale float64
}

// UF11Seed is the fixed seed for UF11's rotation so every run of the
// suite sees the same problem instance, mirroring the CEC 2009
// published data being constant.
const UF11Seed = 20090101

// NewUF11 returns the paper's 5-objective UF11 instance (30
// variables). The λ condition spread is 2: large enough that
// coordinate-wise search fails and convergence is measurably slower
// than DTLZ2 (the paper's requirement for the problem pairing), small
// enough that the Borg MOEA approaches the front within the paper's
// 100k-evaluation budget, as the CEC 2009 instance does.
func NewUF11() *UF11 { return NewUF11Custom(5, 30, 2, UF11Seed) }

// NewUF11Custom builds a rotated-and-scaled DTLZ2 with m objectives, n
// variables (n >= m), condition number maxScale (λ spread), and the
// given rotation seed.
func NewUF11Custom(m, n int, maxScale float64, seed uint64) *UF11 {
	if m < 2 {
		panic("problems: UF11 needs at least 2 objectives")
	}
	if n < m {
		panic("problems: UF11 needs at least as many variables as objectives")
	}
	if maxScale < 1 {
		panic("problems: UF11 maxScale must be >= 1")
	}
	p := &UF11{
		m:        m,
		n:        n,
		rot:      RandomRotation(n, seed),
		scale:    make([]float64, n),
		maxScale: maxScale,
	}
	for i := range p.scale {
		// λ log-spaced in [1, maxScale].
		t := 0.0
		if n > 1 {
			t = float64(i) / float64(n-1)
		}
		p.scale[i] = math.Pow(maxScale, t)
	}
	// Bound L_i chosen so every z* in [0,1]^n has a feasible preimage:
	// x = Rᵀ Λ⁻¹ (z − 0.5), |x_i| ≤ ‖Λ⁻¹(z−0.5)‖ ≤ √n/2.
	l := math.Sqrt(float64(n)) / 2
	p.lo = make([]float64, n)
	p.hi = make([]float64, n)
	for i := range p.lo {
		p.lo[i] = -l
		p.hi[i] = l
	}
	return p
}

func (p *UF11) Name() string {
	if p.m == 5 && p.n == 30 {
		return "UF11"
	}
	return fmt.Sprintf("UF11_%d_%d", p.m, p.n)
}

func (p *UF11) NumVars() int               { return p.n }
func (p *UF11) NumObjs() int               { return p.m }
func (p *UF11) Bounds() (lo, hi []float64) { return p.lo, p.hi }

// Transform maps decision variables to DTLZ2 space, returning z and
// the boundary-violation penalty accumulated while clamping position
// components.
func (p *UF11) Transform(vars []float64) (z []float64, penalty float64) {
	z = MatVec(p.rot, vars)
	for i := range z {
		z[i] = p.scale[i]*z[i] + 0.5
	}
	// Position components must live in [0,1] for the spherical
	// mapping; clamp and penalize quadratically.
	for i := 0; i < p.m-1; i++ {
		if z[i] < 0 {
			penalty += z[i] * z[i]
			z[i] = 0
		} else if z[i] > 1 {
			d := z[i] - 1
			penalty += d * d
			z[i] = 1
		}
	}
	return z, penalty
}

// Evaluate computes the rotated DTLZ2 objectives.
func (p *UF11) Evaluate(vars, objs []float64) {
	checkEvalArgs(p, vars, objs)
	z, penalty := p.Transform(vars)
	g := sphereG(z[p.m-1:]) + penalty
	evalSpherical(z[:p.m-1], g, 1, objs)
}
