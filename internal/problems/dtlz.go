package problems

import (
	"fmt"
	"math"
)

// DTLZ is one member of the Deb-Thiele-Laumanns-Zitzler scalable test
// suite. Variant selects DTLZ1–DTLZ4. The number of variables is
// M − 1 + K where K is the distance-variable count (suite defaults:
// 5 for DTLZ1, 10 otherwise).
type DTLZ struct {
	variant int
	m       int // objectives
	k       int // distance variables
	lo, hi  []float64
}

// NewDTLZ returns the DTLZ problem of the given variant (1–7) with m
// objectives and the suite's default distance-variable count.
func NewDTLZ(variant, m int) *DTLZ {
	if variant < 1 || variant > 7 {
		panic(fmt.Sprintf("problems: DTLZ%d not implemented (1-7 available)", variant))
	}
	if m < 2 {
		panic("problems: DTLZ needs at least 2 objectives")
	}
	k := 10
	switch variant {
	case 1:
		k = 5
	case 7:
		k = 20
	}
	n := m - 1 + k
	lo, hi := unitBounds(n)
	return &DTLZ{variant: variant, m: m, k: k, lo: lo, hi: hi}
}

// NewDTLZ2 returns the paper's first test problem: DTLZ2 with m
// objectives (the paper uses m = 5).
func NewDTLZ2(m int) *DTLZ { return NewDTLZ(2, m) }

func (p *DTLZ) Name() string {
	return fmt.Sprintf("DTLZ%d_%d", p.variant, p.m)
}

func (p *DTLZ) NumVars() int { return p.m - 1 + p.k }
func (p *DTLZ) NumObjs() int { return p.m }

func (p *DTLZ) Bounds() (lo, hi []float64) { return p.lo, p.hi }

// Evaluate computes the DTLZ objectives.
func (p *DTLZ) Evaluate(vars, objs []float64) {
	checkEvalArgs(p, vars, objs)
	pos := vars[:p.m-1]
	dist := vars[p.m-1:]
	switch p.variant {
	case 1:
		g := dtlz1G(dist)
		for i := 0; i < p.m; i++ {
			f := 0.5 * (1 + g)
			for j := 0; j < p.m-1-i; j++ {
				f *= pos[j]
			}
			if i > 0 {
				f *= 1 - pos[p.m-1-i]
			}
			objs[i] = f
		}
	case 2, 3, 4:
		g := sphereG(dist)
		if p.variant == 3 {
			g = dtlz1G(dist) // DTLZ3 uses the multimodal Rastrigin-like g
		}
		alpha := 1.0
		if p.variant == 4 {
			alpha = 100
		}
		evalSpherical(pos, g, alpha, objs)
	case 5, 6:
		var g float64
		if p.variant == 5 {
			g = sphereG(dist)
		} else {
			// DTLZ6's biased distance function.
			for _, x := range dist {
				g += math.Pow(x, 0.1)
			}
		}
		// Degenerate-front meta-variables: θ_1 = x_1, the rest are
		// squeezed toward π/4 as g grows, collapsing the front to a
		// curve.
		theta := make([]float64, p.m-1)
		theta[0] = pos[0]
		for i := 1; i < p.m-1; i++ {
			theta[i] = (1 + 2*g*pos[i]) / (2 * (1 + g))
		}
		evalSpherical(theta, g, 1, objs)
	case 7:
		g := 0.0
		for _, x := range dist {
			g += x
		}
		g = 1 + 9*g/float64(len(dist))
		h := float64(p.m)
		for i := 0; i < p.m-1; i++ {
			objs[i] = pos[i]
			h -= pos[i] / (1 + g) * (1 + math.Sin(3*math.Pi*pos[i]))
		}
		objs[p.m-1] = (1 + g) * h
	}
}

// sphereG is the unimodal distance function Σ (x−0.5)².
func sphereG(dist []float64) float64 {
	g := 0.0
	for _, x := range dist {
		d := x - 0.5
		g += d * d
	}
	return g
}

// dtlz1G is the multimodal distance function used by DTLZ1 and DTLZ3.
func dtlz1G(dist []float64) float64 {
	g := float64(len(dist))
	for _, x := range dist {
		d := x - 0.5
		g += d*d - math.Cos(20*math.Pi*d)
	}
	return 100 * g
}

// evalSpherical maps position variables onto the unit hypersphere
// octant scaled by (1+g): the DTLZ2/3/4 objective geometry. With
// θ_j = pos[j]^α·π/2 and the running product P_k = (1+g)·cos θ_0 ⋯
// cos θ_{k−1}, objective m−1−k is P_k·sin θ_k and objective 0 is
// P_{m−1}: one Pow, one Cos and one Sin per position variable, and the
// products are formed in the textbook nested loop's order, so every
// objective is bit-identical to it.
func evalSpherical(pos []float64, g, alpha float64, objs []float64) {
	m := len(objs)
	f := 1 + g
	for k := 0; k < m-1; k++ {
		theta := math.Pow(pos[k], alpha) * math.Pi / 2
		objs[m-1-k] = f * math.Sin(theta)
		f *= math.Cos(theta)
	}
	objs[0] = f
}
