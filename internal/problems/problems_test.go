package problems

import (
	"math"
	"testing"
	"testing/quick"

	"borgmoea/internal/rng"
)

func TestDTLZ2Dimensions(t *testing.T) {
	p := NewDTLZ2(5)
	if p.NumVars() != 14 {
		t.Errorf("DTLZ2_5 vars = %d, want 14 (M-1+10)", p.NumVars())
	}
	if p.NumObjs() != 5 {
		t.Errorf("DTLZ2_5 objs = %d, want 5", p.NumObjs())
	}
	if p.Name() != "DTLZ2_5" {
		t.Errorf("Name = %q", p.Name())
	}
	lo, hi := p.Bounds()
	for i := range lo {
		if lo[i] != 0 || hi[i] != 1 {
			t.Fatalf("DTLZ2 bounds not unit box")
		}
	}
}

// TestDTLZ2ParetoOptimal: distance vars at 0.5 must give Σf² = 1
// (points on the unit sphere).
func TestDTLZ2ParetoOptimal(t *testing.T) {
	for _, m := range []int{2, 3, 5} {
		p := NewDTLZ2(m)
		r := rng.New(uint64(m))
		objs := make([]float64, m)
		for trial := 0; trial < 100; trial++ {
			vars := make([]float64, p.NumVars())
			for i := 0; i < m-1; i++ {
				vars[i] = r.Float64()
			}
			for i := m - 1; i < len(vars); i++ {
				vars[i] = 0.5
			}
			p.Evaluate(vars, objs)
			sum := 0.0
			for _, f := range objs {
				if f < -1e-12 {
					t.Fatalf("DTLZ2_%d produced negative objective %v", m, f)
				}
				sum += f * f
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("DTLZ2_%d Pareto point has Σf² = %v, want 1", m, sum)
			}
		}
	}
}

// TestDTLZ2GShiftsFront: non-optimal distance vars scale objectives by
// exactly (1+g).
func TestDTLZ2GShiftsFront(t *testing.T) {
	p := NewDTLZ2(3)
	vars := make([]float64, p.NumVars())
	for i := range vars {
		vars[i] = 0.5
	}
	vars[0], vars[1] = 0.3, 0.7
	base := make([]float64, 3)
	p.Evaluate(vars, base)

	vars[5] = 0.9 // perturb one distance variable
	shifted := make([]float64, 3)
	p.Evaluate(vars, shifted)
	g := 0.4 * 0.4
	for i := range base {
		if math.Abs(shifted[i]-(1+g)*base[i]) > 1e-9 {
			t.Fatalf("objective %d = %v, want (1+g)·%v", i, shifted[i], (1+g)*base[i])
		}
	}
}

func TestDTLZ1ParetoSumsToHalf(t *testing.T) {
	p := NewDTLZ(1, 3)
	if p.NumVars() != 7 {
		t.Fatalf("DTLZ1_3 vars = %d, want 7 (M-1+5)", p.NumVars())
	}
	r := rng.New(3)
	objs := make([]float64, 3)
	for trial := 0; trial < 100; trial++ {
		vars := make([]float64, p.NumVars())
		for i := 0; i < 2; i++ {
			vars[i] = r.Float64()
		}
		for i := 2; i < len(vars); i++ {
			vars[i] = 0.5
		}
		p.Evaluate(vars, objs)
		sum := 0.0
		for _, f := range objs {
			sum += f
		}
		if math.Abs(sum-0.5) > 1e-9 {
			t.Fatalf("DTLZ1 Pareto point has Σf = %v, want 0.5", sum)
		}
	}
}

func TestDTLZ3MultimodalG(t *testing.T) {
	p := NewDTLZ(3, 3)
	vars := make([]float64, p.NumVars())
	objs := make([]float64, 3)
	// Optimum at 0.5: g = 0.
	for i := range vars {
		vars[i] = 0.5
	}
	p.Evaluate(vars, objs)
	sum := 0.0
	for _, f := range objs {
		sum += f * f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("DTLZ3 optimum not on unit sphere: Σf² = %v", sum)
	}
	// Off-optimum distance vars inflate objectives enormously.
	vars[4] = 0.525 // near a local optimum of the cosine term
	p.Evaluate(vars, objs)
	sum2 := 0.0
	for _, f := range objs {
		sum2 += f * f
	}
	if sum2 <= sum {
		t.Fatal("DTLZ3 g did not penalize off-optimal distance variables")
	}
}

func TestDTLZ4BiasMatchesDTLZ2AtOptimum(t *testing.T) {
	p2 := NewDTLZ(2, 3)
	p4 := NewDTLZ(4, 3)
	vars := make([]float64, p2.NumVars())
	for i := range vars {
		vars[i] = 0.5
	}
	vars[0], vars[1] = 1, 1 // x^100 = x at 0 and 1
	o2 := make([]float64, 3)
	o4 := make([]float64, 3)
	p2.Evaluate(vars, o2)
	p4.Evaluate(vars, o4)
	for i := range o2 {
		if math.Abs(o2[i]-o4[i]) > 1e-9 {
			t.Fatalf("DTLZ4 at corner differs from DTLZ2: %v vs %v", o4, o2)
		}
	}
}

func TestDTLZConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewDTLZ(8, 3) },
		func() { NewDTLZ(0, 3) },
		func() { NewDTLZ(2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad DTLZ constructor did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestEvaluatePanicsOnBadLengths(t *testing.T) {
	p := NewDTLZ2(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Evaluate with wrong lengths did not panic")
		}
	}()
	p.Evaluate(make([]float64, 3), make([]float64, 3))
}

func TestRandomRotationOrthogonal(t *testing.T) {
	for _, n := range []int{2, 5, 30} {
		m := RandomRotation(n, 42)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got := dotVec(m[i], m[j])
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("n=%d: row%d·row%d = %v, want %v", n, i, j, got, want)
				}
			}
		}
	}
}

func TestRandomRotationDeterministic(t *testing.T) {
	a := RandomRotation(10, 7)
	b := RandomRotation(10, 7)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("RandomRotation not deterministic for fixed seed")
			}
		}
	}
	c := RandomRotation(10, 8)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical rotations")
	}
}

func TestMatVecRoundTrip(t *testing.T) {
	m := RandomRotation(8, 3)
	r := rng.New(4)
	x := make([]float64, 8)
	for i := range x {
		x[i] = r.Norm()
	}
	// Orthogonality: Mᵀ(Mx) = x.
	back := MatTVec(m, MatVec(m, x))
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-9 {
			t.Fatalf("MᵀMx ≠ x at %d: %v vs %v", i, back[i], x[i])
		}
	}
}

func TestUF11Dimensions(t *testing.T) {
	p := NewUF11()
	if p.NumVars() != 30 || p.NumObjs() != 5 {
		t.Fatalf("UF11 dims = (%d vars, %d objs), want (30, 5)", p.NumVars(), p.NumObjs())
	}
	if p.Name() != "UF11" {
		t.Errorf("Name = %q", p.Name())
	}
	lo, hi := p.Bounds()
	want := math.Sqrt(30) / 2
	for i := range lo {
		if math.Abs(lo[i]+want) > 1e-12 || math.Abs(hi[i]-want) > 1e-12 {
			t.Fatalf("UF11 bounds = [%v, %v], want ±%v", lo[i], hi[i], want)
		}
	}
}

// TestUF11ParetoFrontReachable: preimages of Pareto-optimal z vectors
// must be inside the decision box and evaluate onto the unit sphere.
func TestUF11ParetoFrontReachable(t *testing.T) {
	p := NewUF11()
	r := rng.New(5)
	lo, hi := p.Bounds()
	objs := make([]float64, 5)
	for trial := 0; trial < 200; trial++ {
		zstar := make([]float64, 30)
		for i := 0; i < 4; i++ {
			zstar[i] = r.Float64()
		}
		for i := 4; i < 30; i++ {
			zstar[i] = 0.5
		}
		x := p.ParetoPreimage(zstar)
		for i := range x {
			if x[i] < lo[i] || x[i] > hi[i] {
				t.Fatalf("Pareto preimage outside decision box at var %d: %v", i, x[i])
			}
		}
		p.Evaluate(x, objs)
		sum := 0.0
		for _, f := range objs {
			sum += f * f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("UF11 Pareto preimage maps to Σf² = %v, want 1", sum)
		}
	}
}

// TestUF11NonSeparable: perturbing a single decision variable moves
// many z components (the whole point of the rotation).
func TestUF11NonSeparable(t *testing.T) {
	p := NewUF11()
	x := make([]float64, 30)
	z0, _ := p.Transform(x)
	x[0] = 0.1
	z1, _ := p.Transform(x)
	changed := 0
	for i := range z0 {
		if math.Abs(z1[i]-z0[i]) > 1e-12 {
			changed++
		}
	}
	if changed < 25 {
		t.Fatalf("single-variable perturbation changed only %d/30 z components; rotation ineffective", changed)
	}
}

func TestUF11PenaltyOutsideBox(t *testing.T) {
	p := NewUF11()
	r := rng.New(6)
	lo, hi := p.Bounds()
	// Extreme corner: some position z components will exceed [0,1]
	// and must be penalized, never produce NaN.
	objs := make([]float64, 5)
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, 30)
		for i := range x {
			if r.Float64() < 0.5 {
				x[i] = lo[i]
			} else {
				x[i] = hi[i]
			}
		}
		p.Evaluate(x, objs)
		for _, f := range objs {
			if math.IsNaN(f) || f < 0 {
				t.Fatalf("UF11 corner produced invalid objective %v", f)
			}
		}
	}
}

func TestUF11ScalingSpread(t *testing.T) {
	p := NewUF11()
	if p.scale[0] != 1 {
		t.Errorf("λ_0 = %v, want 1", p.scale[0])
	}
	if math.Abs(p.scale[29]-2) > 1e-9 {
		t.Errorf("λ_29 = %v, want 2 (default condition spread)", p.scale[29])
	}
	for i := 1; i < 30; i++ {
		if p.scale[i] <= p.scale[i-1] {
			t.Fatal("λ not increasing")
		}
	}
}

func TestUF11CustomValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewUF11Custom(1, 5, 10, 1) },
		func() { NewUF11Custom(5, 3, 10, 1) },
		func() { NewUF11Custom(3, 5, 0.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad UF11 constructor did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestSphereFrontOnSphere(t *testing.T) {
	set := SphereFront(5, 500, 1)
	if len(set) != 500 {
		t.Fatalf("SphereFront returned %d points", len(set))
	}
	for _, p := range set {
		sum := 0.0
		for _, f := range p {
			if f < 0 {
				t.Fatal("SphereFront produced negative coordinate")
			}
			sum += f * f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("SphereFront point off sphere: Σf² = %v", sum)
		}
	}
}

func TestLinearFrontOnSimplex(t *testing.T) {
	set := LinearFront(4, 300, 2)
	for _, p := range set {
		sum := 0.0
		for _, f := range p {
			if f < 0 {
				t.Fatal("LinearFront produced negative coordinate")
			}
			sum += f
		}
		if math.Abs(sum-0.5) > 1e-9 {
			t.Fatalf("LinearFront point off simplex: Σf = %v", sum)
		}
	}
}

func TestIdealSphereHypervolumeKnownValues(t *testing.T) {
	// m=2, ref=1: 1 − π/4.
	if got, want := IdealSphereHypervolume(2, 1), 1-math.Pi/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("ideal HV(2,1) = %v, want %v", got, want)
	}
	// m=3, ref=1: 1 − (4π/3)/8 = 1 − π/6.
	if got, want := IdealSphereHypervolume(3, 1), 1-math.Pi/6; math.Abs(got-want) > 1e-12 {
		t.Errorf("ideal HV(3,1) = %v, want %v", got, want)
	}
	// m=5, ref=1.1: 1.1^5 − π²/60 (V₅ = 8π²/15, orthant V₅/32).
	if got, want := IdealSphereHypervolume(5, 1.1), math.Pow(1.1, 5)-math.Pi*math.Pi/60; math.Abs(got-want) > 1e-12 {
		t.Errorf("ideal HV(5,1.1) = %v, want %v", got, want)
	}
}

func TestIdealHypervolumePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { IdealSphereHypervolume(3, 0.9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("ideal HV with bad ref did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestEvaluateIsPure: repeated evaluation of the same vars must give
// identical objectives (problems hold no mutable state).
func TestEvaluateIsPure(t *testing.T) {
	ps := []Problem{NewDTLZ(1, 3), NewDTLZ2(5), NewDTLZ(3, 3), NewDTLZ(4, 4), NewUF11()}
	for _, p := range ps {
		r := rng.New(10)
		lo, hi := p.Bounds()
		vars := make([]float64, p.NumVars())
		for i := range vars {
			vars[i] = r.Range(lo[i], hi[i])
		}
		varsCopy := append([]float64(nil), vars...)
		a := make([]float64, p.NumObjs())
		b := make([]float64, p.NumObjs())
		p.Evaluate(vars, a)
		p.Evaluate(vars, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s not pure", p.Name())
			}
		}
		for i := range vars {
			if vars[i] != varsCopy[i] {
				t.Fatalf("%s modified its input", p.Name())
			}
		}
	}
}

// TestObjectivesFinite fuzzes every problem over its whole box.
func TestObjectivesFinite(t *testing.T) {
	ps := []Problem{NewDTLZ(1, 3), NewDTLZ2(5), NewDTLZ(3, 5), NewDTLZ(4, 3), NewUF11()}
	for _, p := range ps {
		p := p
		lo, hi := p.Bounds()
		objs := make([]float64, p.NumObjs())
		err := quick.Check(func(seed uint64) bool {
			r := rng.New(seed)
			vars := make([]float64, p.NumVars())
			for i := range vars {
				vars[i] = r.Range(lo[i], hi[i])
			}
			p.Evaluate(vars, objs)
			for _, f := range objs {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 200})
		if err != nil {
			t.Errorf("%s produced non-finite objectives: %v", p.Name(), err)
		}
	}
}

func BenchmarkDTLZ2Evaluate(b *testing.B) {
	p := NewDTLZ2(5)
	vars := make([]float64, p.NumVars())
	for i := range vars {
		vars[i] = 0.4
	}
	objs := make([]float64, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Evaluate(vars, objs)
	}
}

func BenchmarkUF11Evaluate(b *testing.B) {
	p := NewUF11()
	vars := make([]float64, p.NumVars())
	objs := make([]float64, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Evaluate(vars, objs)
	}
}

// ParetoPreimage returns a decision vector that maps to the given
// DTLZ2-space target z* (which must have distance components 0.5 to be
// Pareto-optimal).
func (p *UF11) ParetoPreimage(zstar []float64) []float64 {
	if len(zstar) != p.n {
		panic("problems: ParetoPreimage target length mismatch")
	}
	w := make([]float64, p.n)
	for i := range w {
		w[i] = (zstar[i] - 0.5) / p.scale[i]
	}
	return MatTVec(p.rot, w)
}

// MatTVec computes y = Mᵀ·x.
func MatTVec(m [][]float64, x []float64) []float64 {
	n := len(m)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += m[j][i] * x[j]
		}
		y[i] = s
	}
	return y
}
