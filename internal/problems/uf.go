package problems

import (
	"fmt"
	"math"
)

// UF implements UF1–UF10 of the CEC 2009 unconstrained multiobjective
// competition suite (Zhang et al., tech. rep. CES-487) — the family
// UF11 belongs to. UF1–UF7 are bi-objective, UF8–UF10 tri-objective;
// all couple every distance variable to the position variables
// through nonlinear Pareto-set shapes, which is what makes the suite
// hard for classical MOEAs.
type UF struct {
	variant int
	n       int
	lo, hi  []float64
}

// NewUF returns UF<variant> (1–10) with n decision variables (the
// competition used n = 30). It panics on an unknown variant or n < 5.
func NewUF(variant, n int) *UF {
	if variant < 1 || variant > 10 {
		panic(fmt.Sprintf("problems: UF%d not implemented (1-10; UF11 has its own constructor)", variant))
	}
	if n < 5 {
		panic("problems: UF problems need at least 5 variables")
	}
	p := &UF{variant: variant, n: n}
	p.lo = make([]float64, n)
	p.hi = make([]float64, n)
	for j := 0; j < n; j++ {
		switch variant {
		case 1, 2, 5, 6, 7:
			// x1 ∈ [0,1], others ∈ [-1,1].
			if j == 0 {
				p.lo[j], p.hi[j] = 0, 1
			} else {
				p.lo[j], p.hi[j] = -1, 1
			}
		case 3:
			p.lo[j], p.hi[j] = 0, 1
		case 4:
			if j == 0 {
				p.lo[j], p.hi[j] = 0, 1
			} else {
				p.lo[j], p.hi[j] = -2, 2
			}
		case 8, 9, 10:
			// x1, x2 ∈ [0,1], others ∈ [-2,2].
			if j <= 1 {
				p.lo[j], p.hi[j] = 0, 1
			} else {
				p.lo[j], p.hi[j] = -2, 2
			}
		}
	}
	return p
}

func (p *UF) Name() string { return fmt.Sprintf("UF%d", p.variant) }

func (p *UF) NumVars() int { return p.n }

func (p *UF) NumObjs() int {
	if p.variant >= 8 {
		return 3
	}
	return 2
}

func (p *UF) Bounds() (lo, hi []float64) { return p.lo, p.hi }

// Evaluate computes the UF objectives.
func (p *UF) Evaluate(vars, objs []float64) {
	checkEvalArgs(p, vars, objs)
	switch p.variant {
	case 1:
		p.uf1(vars, objs)
	case 2:
		p.uf2(vars, objs)
	case 3:
		p.uf3(vars, objs)
	case 4:
		p.uf4(vars, objs)
	case 5:
		p.uf5(vars, objs)
	case 6:
		p.uf6(vars, objs)
	case 7:
		p.uf7(vars, objs)
	case 8:
		p.uf8(vars, objs)
	case 9:
		p.uf9(vars, objs)
	case 10:
		p.uf10(vars, objs)
	}
}

// sumY2 accumulates the mean of y² over the index class (odd selects
// j ≡ 1 (mod 2) in 1-based numbering, i.e. J1).
func meanOver(n int, odd bool, term func(j int) float64) float64 {
	sum, count := 0.0, 0
	for j := 2; j <= n; j++ { // 1-based variable index, j = 2..n
		if (j%2 == 1) == odd {
			sum += term(j)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// yBase is the UF1/UF4–UF7 distance transform
// y_j = x_j − sin(6π x1 + jπ/n).
func yBase(x []float64, j, n int) float64 {
	return x[j-1] - math.Sin(6*math.Pi*x[0]+float64(j)*math.Pi/float64(n))
}

func (p *UF) uf1(x, f []float64) {
	sq := func(j int) float64 { y := yBase(x, j, p.n); return y * y }
	f[0] = x[0] + 2*meanOver(p.n, true, sq)
	f[1] = 1 - math.Sqrt(x[0]) + 2*meanOver(p.n, false, sq)
}

func (p *UF) uf2(x, f []float64) {
	term := func(j int) float64 {
		a := 0.3*x[0]*x[0]*math.Cos(24*math.Pi*x[0]+4*float64(j)*math.Pi/float64(p.n)) + 0.6*x[0]
		var y float64
		if j%2 == 1 {
			y = x[j-1] - a*math.Cos(6*math.Pi*x[0]+float64(j)*math.Pi/float64(p.n))
		} else {
			y = x[j-1] - a*math.Sin(6*math.Pi*x[0]+float64(j)*math.Pi/float64(p.n))
		}
		return y * y
	}
	f[0] = x[0] + 2*meanOver(p.n, true, term)
	f[1] = 1 - math.Sqrt(x[0]) + 2*meanOver(p.n, false, term)
}

// uf3Combo computes the 4Σy² − 2Πcos(20 y_j π/√j) + 2 term used by
// UF3 and UF6, averaged with the 2/|J| factor applied by the caller.
func uf3Combo(n int, odd bool, y func(j int) float64) float64 {
	sum := 0.0
	prod := 1.0
	count := 0
	for j := 2; j <= n; j++ {
		if (j%2 == 1) == odd {
			v := y(j)
			sum += v * v
			prod *= math.Cos(20 * v * math.Pi / math.Sqrt(float64(j)))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return (4*sum - 2*prod + 2) / float64(count)
}

func (p *UF) uf3(x, f []float64) {
	y := func(j int) float64 {
		e := 0.5 * (1 + 3*float64(j-2)/float64(p.n-2))
		return x[j-1] - math.Pow(x[0], e)
	}
	f[0] = x[0] + 2*uf3Combo(p.n, true, y)
	f[1] = 1 - math.Sqrt(x[0]) + 2*uf3Combo(p.n, false, y)
}

func (p *UF) uf4(x, f []float64) {
	h := func(t float64) float64 {
		a := math.Abs(t)
		return a / (1 + math.Exp(2*a))
	}
	term := func(j int) float64 { return h(yBase(x, j, p.n)) }
	f[0] = x[0] + 2*meanOver(p.n, true, term)
	f[1] = 1 - x[0]*x[0] + 2*meanOver(p.n, false, term)
}

func (p *UF) uf5(x, f []float64) {
	const bigN, eps = 10.0, 0.1
	h := func(t float64) float64 { return 2*t*t - math.Cos(4*math.Pi*t) + 1 }
	term := func(j int) float64 { return h(yBase(x, j, p.n)) }
	bump := (1/(2*bigN) + eps) * math.Abs(math.Sin(2*bigN*math.Pi*x[0]))
	f[0] = x[0] + bump + 2*meanOver(p.n, true, term)
	f[1] = 1 - x[0] + bump + 2*meanOver(p.n, false, term)
}

func (p *UF) uf6(x, f []float64) {
	const bigN, eps = 2.0, 0.1
	y := func(j int) float64 { return yBase(x, j, p.n) }
	bump := math.Max(0, 2*(1/(2*bigN)+eps)*math.Sin(2*bigN*math.Pi*x[0]))
	f[0] = x[0] + bump + 2*uf3Combo(p.n, true, y)
	f[1] = 1 - x[0] + bump + 2*uf3Combo(p.n, false, y)
}

func (p *UF) uf7(x, f []float64) {
	sq := func(j int) float64 { y := yBase(x, j, p.n); return y * y }
	root := math.Pow(x[0], 0.2)
	f[0] = root + 2*meanOver(p.n, true, sq)
	f[1] = 1 - root + 2*meanOver(p.n, false, sq)
}

// meanOver3 averages term over the 3-class partition J_c = {j : j ≡ c
// (mod 3), 3 <= j <= n} used by the tri-objective problems (class 1,
// 2 or 0).
func meanOver3(n, class int, term func(j int) float64) float64 {
	sum, count := 0.0, 0
	for j := 3; j <= n; j++ {
		if j%3 == class {
			sum += term(j)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// yTri is the UF8–UF10 distance transform
// y_j = x_j − 2 x2 sin(2π x1 + jπ/n).
func yTri(x []float64, j, n int) float64 {
	return x[j-1] - 2*x[1]*math.Sin(2*math.Pi*x[0]+float64(j)*math.Pi/float64(n))
}

func (p *UF) uf8(x, f []float64) {
	sq := func(j int) float64 { y := yTri(x, j, p.n); return y * y }
	f[0] = math.Cos(0.5*math.Pi*x[0])*math.Cos(0.5*math.Pi*x[1]) + 2*meanOver3(p.n, 1, sq)
	f[1] = math.Cos(0.5*math.Pi*x[0])*math.Sin(0.5*math.Pi*x[1]) + 2*meanOver3(p.n, 2, sq)
	f[2] = math.Sin(0.5*math.Pi*x[0]) + 2*meanOver3(p.n, 0, sq)
}

func (p *UF) uf9(x, f []float64) {
	const eps = 0.1
	sq := func(j int) float64 { y := yTri(x, j, p.n); return y * y }
	t := math.Max(0, (1+eps)*(1-4*(2*x[0]-1)*(2*x[0]-1)))
	f[0] = 0.5*(t+2*x[0])*x[1] + 2*meanOver3(p.n, 1, sq)
	f[1] = 0.5*(t-2*x[0]+2)*x[1] + 2*meanOver3(p.n, 2, sq)
	f[2] = 1 - x[1] + 2*meanOver3(p.n, 0, sq)
}

func (p *UF) uf10(x, f []float64) {
	h := func(t float64) float64 { return 4*t*t - math.Cos(8*math.Pi*t) + 1 }
	term := func(j int) float64 { return h(yTri(x, j, p.n)) }
	f[0] = math.Cos(0.5*math.Pi*x[0])*math.Cos(0.5*math.Pi*x[1]) + 2*meanOver3(p.n, 1, term)
	f[1] = math.Cos(0.5*math.Pi*x[0])*math.Sin(0.5*math.Pi*x[1]) + 2*meanOver3(p.n, 2, term)
	f[2] = math.Sin(0.5*math.Pi*x[0]) + 2*meanOver3(p.n, 0, term)
}
