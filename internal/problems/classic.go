package problems

import "math"

// Schaffer is Schaffer's single-variable bi-objective problem
// (f1 = x², f2 = (x−2)²), the standard first example of a Pareto
// front. The front is x ∈ [0, 2].
type Schaffer struct{}

// NewSchaffer returns Schaffer's problem on x ∈ [-10, 10].
func NewSchaffer() Schaffer { return Schaffer{} }

func (Schaffer) Name() string { return "Schaffer" }
func (Schaffer) NumVars() int { return 1 }
func (Schaffer) NumObjs() int { return 2 }

func (Schaffer) Bounds() (lo, hi []float64) {
	return []float64{-10}, []float64{10}
}

func (p Schaffer) Evaluate(vars, objs []float64) {
	checkEvalArgs(p, vars, objs)
	x := vars[0]
	objs[0] = x * x
	objs[1] = (x - 2) * (x - 2)
}

// FonsecaFleming is the Fonseca & Fleming problem: two Gaussian-like
// objectives with a concave front, n variables on [-4, 4].
type FonsecaFleming struct{ n int }

// NewFonsecaFleming returns the problem with n variables (the
// literature standard is 3).
func NewFonsecaFleming(n int) FonsecaFleming {
	if n < 1 {
		panic("problems: FonsecaFleming needs at least 1 variable")
	}
	return FonsecaFleming{n: n}
}

func (p FonsecaFleming) Name() string { return "FonsecaFleming" }
func (p FonsecaFleming) NumVars() int { return p.n }
func (FonsecaFleming) NumObjs() int   { return 2 }

func (p FonsecaFleming) Bounds() (lo, hi []float64) {
	lo = make([]float64, p.n)
	hi = make([]float64, p.n)
	for i := range lo {
		lo[i], hi[i] = -4, 4
	}
	return lo, hi
}

func (p FonsecaFleming) Evaluate(vars, objs []float64) {
	checkEvalArgs(p, vars, objs)
	inv := 1 / math.Sqrt(float64(p.n))
	s1, s2 := 0.0, 0.0
	for _, x := range vars {
		d1 := x - inv
		d2 := x + inv
		s1 += d1 * d1
		s2 += d2 * d2
	}
	objs[0] = 1 - math.Exp(-s1)
	objs[1] = 1 - math.Exp(-s2)
}

// Kursawe is Kursawe's problem: a disconnected, non-convex front with
// strong variable interactions; n variables on [-5, 5] (standard
// n = 3).
type Kursawe struct{ n int }

// NewKursawe returns Kursawe's problem with n variables (>= 2).
func NewKursawe(n int) Kursawe {
	if n < 2 {
		panic("problems: Kursawe needs at least 2 variables")
	}
	return Kursawe{n: n}
}

func (p Kursawe) Name() string { return "Kursawe" }
func (p Kursawe) NumVars() int { return p.n }
func (Kursawe) NumObjs() int   { return 2 }

func (p Kursawe) Bounds() (lo, hi []float64) {
	lo = make([]float64, p.n)
	hi = make([]float64, p.n)
	for i := range lo {
		lo[i], hi[i] = -5, 5
	}
	return lo, hi
}

func (p Kursawe) Evaluate(vars, objs []float64) {
	checkEvalArgs(p, vars, objs)
	f1 := 0.0
	for i := 0; i+1 < p.n; i++ {
		f1 += -10 * math.Exp(-0.2*math.Sqrt(vars[i]*vars[i]+vars[i+1]*vars[i+1]))
	}
	f2 := 0.0
	for _, x := range vars {
		f2 += math.Pow(math.Abs(x), 0.8) + 5*math.Sin(x*x*x)
	}
	objs[0] = f1
	objs[1] = f2
}
