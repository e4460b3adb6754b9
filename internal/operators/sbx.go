package operators

import (
	"math"

	"borgmoea/internal/rng"
)

// SBX is Deb & Agrawal's simulated binary crossover (bounded variant).
// Borg's default parameterization is rate 1.0 and distribution index
// 15.
type SBX struct {
	// Rate is the probability the crossover is applied at all.
	Rate float64
	// DistributionIndex controls offspring spread (larger = closer to
	// parents).
	DistributionIndex float64
}

// NewSBX returns SBX with Borg's defaults (rate 1.0, index 15).
func NewSBX() SBX { return SBX{Rate: 1.0, DistributionIndex: 15} }

func (SBX) Name() string   { return "sbx" }
func (SBX) Arity() int     { return 2 }
func (SBX) Offspring() int { return 2 }

// Apply returns two offspring bracketing the parents.
func (op SBX) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	checkParents(op.Name(), op.Arity(), parents, lo, hi)
	c1 := make([]float64, len(lo))
	c2 := make([]float64, len(lo))
	op.cross(c1, c2, parents[0], parents[1], lo, hi, r)
	return [][]float64{c1, c2}
}

// Child writes Apply's first offspring into child.
func (op SBX) Child(child []float64, parents [][]float64, lo, hi []float64, r *rng.Source, _ *Scratch) {
	checkParents(op.Name(), op.Arity(), parents, lo, hi)
	op.cross(child, nil, parents[0], parents[1], lo, hi, r)
}

// cross writes the two children of p1 and p2 into c1 and c2. With c2
// nil it still makes every draw, the swap draw included, but computes
// only the side the swap hands to c1.
func (op SBX) cross(c1, c2, p1, p2, lo, hi []float64, r *rng.Source) {
	copy(c1, p1)
	if c2 != nil {
		copy(c2, p2)
	}
	if r.Float64() > op.Rate {
		return
	}
	for i := range c1 {
		// Each variable participates with probability 0.5, the
		// standard per-variable gating.
		if r.Float64() > 0.5 {
			continue
		}
		x1, x2 := p1[i], p2[i]
		if math.Abs(x1-x2) < 1e-14 {
			continue
		}
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		lb, ub := lo[i], hi[i]
		u := r.Float64()
		// Randomly swap which child gets which side, as in Deb's
		// reference implementation.
		swap := r.Float64() < 0.5
		if c2 == nil {
			c1[i] = sbxChild(x1, x2, lb, ub, u, op.DistributionIndex, !swap)
			continue
		}
		y1 := sbxChild(x1, x2, lb, ub, u, op.DistributionIndex, true)
		y2 := sbxChild(x1, x2, lb, ub, u, op.DistributionIndex, false)
		if swap {
			y1, y2 = y2, y1
		}
		c1[i], c2[i] = y1, y2
	}
	clamp(c1, lo, hi)
	if c2 != nil {
		clamp(c2, lo, hi)
	}
}

// sbxChild computes one bounded-SBX child variable. lower selects the
// child on the x1 side.
func sbxChild(x1, x2, lb, ub, u, eta float64, lower bool) float64 {
	dx := x2 - x1
	var beta float64
	if lower {
		beta = 1 + 2*(x1-lb)/dx
	} else {
		beta = 1 + 2*(ub-x2)/dx
	}
	alpha := 2 - pow(beta, -(eta+1))
	var betaq float64
	if u <= 1/alpha {
		betaq = pow(u*alpha, 1/(eta+1))
	} else {
		betaq = pow(1/(2-u*alpha), 1/(eta+1))
	}
	if lower {
		return 0.5 * ((x1 + x2) - betaq*dx)
	}
	return 0.5 * ((x1 + x2) + betaq*dx)
}
