package problems

import (
	"math"
	"testing"

	"borgmoea/internal/rng"
)

func TestUFDimensions(t *testing.T) {
	for v := 1; v <= 10; v++ {
		p := NewUF(v, 30)
		if p.NumVars() != 30 {
			t.Errorf("UF%d vars = %d", v, p.NumVars())
		}
		wantObjs := 2
		if v >= 8 {
			wantObjs = 3
		}
		if p.NumObjs() != wantObjs {
			t.Errorf("UF%d objs = %d, want %d", v, p.NumObjs(), wantObjs)
		}
		lo, hi := p.Bounds()
		if lo[0] != 0 || hi[0] != 1 {
			t.Errorf("UF%d x1 bounds [%v,%v], want [0,1]", v, lo[0], hi[0])
		}
	}
}

func TestUFConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewUF(0, 30) },
		func() { NewUF(11, 30) },
		func() { NewUF(1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad UF constructor did not panic")
				}
			}()
			fn()
		}()
	}
}

// frontValue returns the known Pareto-front objective relation for the
// bi-objective problems: given f1, the Pareto-optimal f2.
func frontValue(variant int, f1 float64) float64 {
	switch variant {
	case 1, 2, 3:
		return 1 - math.Sqrt(f1)
	case 4:
		return 1 - f1*f1
	case 5, 6:
		return 1 - f1 // piecewise/disconnected; holds at the optima we test
	case 7:
		return 1 - f1
	}
	panic("not bi-objective")
}

// TestUFParetoPointsOnFront: zeroing every y_j must put the smooth
// bi-objective problems exactly on their known front.
func TestUFParetoPointsOnFront(t *testing.T) {
	r := rng.New(1)
	for _, v := range []int{1, 2, 3, 4, 7} {
		p := NewUF(v, 30)
		objs := make([]float64, 2)
		for trial := 0; trial < 50; trial++ {
			x1 := r.Float64()
			x := p.ParetoPoint([]float64{x1})
			// The Pareto set must be inside the decision box.
			lo, hi := p.Bounds()
			for j := range x {
				if x[j] < lo[j]-1e-9 || x[j] > hi[j]+1e-9 {
					t.Fatalf("UF%d Pareto point leaves box at var %d: %v", v, j, x[j])
				}
			}
			p.Evaluate(x, objs)
			var wantF1 float64
			switch v {
			case 7:
				wantF1 = math.Pow(x1, 0.2)
			default:
				wantF1 = x1
			}
			if math.Abs(objs[0]-wantF1) > 1e-9 {
				t.Fatalf("UF%d f1 = %v, want %v", v, objs[0], wantF1)
			}
			if math.Abs(objs[1]-frontValue(v, objs[0])) > 1e-9 {
				t.Fatalf("UF%d point (%v, %v) off front", v, objs[0], objs[1])
			}
		}
	}
}

// TestUF5UF6ParetoAtOptima: the disconnected problems are optimal at
// x1 = i/(2N) where the sine bump vanishes.
func TestUF5UF6ParetoAtOptima(t *testing.T) {
	for _, v := range []int{5, 6} {
		p := NewUF(v, 30)
		objs := make([]float64, 2)
		bigN := 10.0
		if v == 6 {
			bigN = 2
		}
		for i := 0; i <= int(2*bigN); i++ {
			x1 := float64(i) / (2 * bigN)
			x := p.ParetoPoint([]float64{x1})
			p.Evaluate(x, objs)
			if math.Abs(objs[0]-x1) > 1e-9 {
				t.Fatalf("UF%d f1 = %v at bump node %v", v, objs[0], x1)
			}
			if math.Abs(objs[1]-(1-x1)) > 1e-9 {
				t.Fatalf("UF%d f2 = %v, want %v", v, objs[1], 1-x1)
			}
		}
	}
}

// TestUFTriObjectiveParetoOnSphere: UF8 and UF10 Pareto points lie on
// the unit sphere octant; UF9's front satisfies its own identity.
func TestUFTriObjectiveParetoOnSphere(t *testing.T) {
	r := rng.New(2)
	for _, v := range []int{8, 10} {
		p := NewUF(v, 30)
		objs := make([]float64, 3)
		for trial := 0; trial < 50; trial++ {
			x := p.ParetoPoint([]float64{r.Float64(), r.Float64()})
			p.Evaluate(x, objs)
			sum := 0.0
			for _, f := range objs {
				sum += f * f
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("UF%d Pareto point has Σf² = %v", v, sum)
			}
		}
	}
}

func TestUF9ParetoIdentity(t *testing.T) {
	p := NewUF(9, 30)
	objs := make([]float64, 3)
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		x2 := r.Float64()
		// On UF9's optimal regions x1 ∈ [0, 0.25] ∪ [0.75, 1] the
		// max() term vanishes.
		x1 := r.Float64() * 0.25
		if trial%2 == 0 {
			x1 = 0.75 + r.Float64()*0.25
		}
		x := p.ParetoPoint([]float64{x1, x2})
		p.Evaluate(x, objs)
		// f1 + f2 = x2 (when the max term is zero), f3 = 1 − x2.
		if math.Abs(objs[0]+objs[1]-x2) > 1e-9 {
			t.Fatalf("UF9 f1+f2 = %v, want %v", objs[0]+objs[1], x2)
		}
		if math.Abs(objs[2]-(1-x2)) > 1e-9 {
			t.Fatalf("UF9 f3 = %v, want %v", objs[2], 1-x2)
		}
	}
}

// TestUFOffParetoWorse: perturbing a distance variable away from the
// Pareto set must not improve any objective's distance terms.
func TestUFOffParetoWorse(t *testing.T) {
	r := rng.New(4)
	for v := 1; v <= 10; v++ {
		p := NewUF(v, 30)
		m := p.NumObjs()
		on := make([]float64, m)
		off := make([]float64, m)
		pos := []float64{0.37, 0.61}
		x := p.ParetoPoint(pos)
		p.Evaluate(x, on)
		xo := append([]float64(nil), x...)
		lo, hi := p.Bounds()
		j := 4 + r.Intn(20)
		xo[j] = clampTo(xo[j]+0.5, lo[j], hi[j])
		p.Evaluate(xo, off)
		better := false
		for i := range on {
			if off[i] < on[i]-1e-9 {
				better = true
			}
		}
		worse := false
		for i := range on {
			if off[i] > on[i]+1e-9 {
				worse = true
			}
		}
		if better && !worse {
			t.Errorf("UF%d: distance perturbation dominated a Pareto point", v)
		}
		if !worse {
			t.Errorf("UF%d: distance perturbation had no effect", v)
		}
	}
}

func clampTo(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func TestUFFiniteEverywhere(t *testing.T) {
	r := rng.New(5)
	for v := 1; v <= 10; v++ {
		p := NewUF(v, 30)
		lo, hi := p.Bounds()
		objs := make([]float64, p.NumObjs())
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, 30)
			for j := range x {
				x[j] = r.Range(lo[j], hi[j])
			}
			p.Evaluate(x, objs)
			for _, f := range objs {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("UF%d produced non-finite objective", v)
				}
			}
		}
	}
}

func TestDTLZ5DegenerateFront(t *testing.T) {
	p := NewDTLZ(5, 3)
	objs := make([]float64, 3)
	r := rng.New(6)
	for trial := 0; trial < 100; trial++ {
		vars := make([]float64, p.NumVars())
		vars[0] = r.Float64()
		vars[1] = r.Float64()
		for i := 2; i < len(vars); i++ {
			vars[i] = 0.5 // g = 0
		}
		p.Evaluate(vars, objs)
		sum := 0.0
		for _, f := range objs {
			sum += f * f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("DTLZ5 optimal point off sphere: Σf² = %v", sum)
		}
		// Degeneracy: with g = 0, θ_2 is pinned to π/4 regardless of
		// x_2, so f1 = f2·tan? — check the invariant f1/f2 is fixed:
		// both use cos/sin of π/4 · (π/2 scaling inside), hence
		// f2/f1 = tan(θ2·π/2) with θ2 = 0.5 → f2 = f1.
		if math.Abs(objs[0]-objs[1]) > 1e-9 {
			t.Fatalf("DTLZ5 front not degenerate: f1=%v f2=%v", objs[0], objs[1])
		}
	}
}

func TestDTLZ6BiasedG(t *testing.T) {
	p := NewDTLZ(6, 3)
	objs := make([]float64, 3)
	vars := make([]float64, p.NumVars())
	// Optimum at distance vars = 0 (x^0.1 = 0).
	vars[0], vars[1] = 0.3, 0.7
	p.Evaluate(vars, objs)
	sum := 0.0
	for _, f := range objs {
		sum += f * f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("DTLZ6 optimum off sphere: Σf² = %v", sum)
	}
	// Small distance perturbations inflate g sharply (bias 0.1).
	vars[3] = 0.01
	p.Evaluate(vars, objs)
	sum2 := 0.0
	for _, f := range objs {
		sum2 += f * f
	}
	if sum2 < 1.5 {
		t.Fatalf("DTLZ6 bias too weak: Σf² = %v after tiny perturbation", sum2)
	}
}

func TestDTLZ7Shape(t *testing.T) {
	p := NewDTLZ(7, 3)
	if p.NumVars() != 22 {
		t.Fatalf("DTLZ7_3 vars = %d, want 22 (M-1+20)", p.NumVars())
	}
	objs := make([]float64, 3)
	vars := make([]float64, p.NumVars())
	// g = 1 at distance vars = 0; h = M − Σ f_i/2·(1+sin 3πf_i).
	vars[0], vars[1] = 0.25, 0.75
	p.Evaluate(vars, objs)
	if objs[0] != 0.25 || objs[1] != 0.75 {
		t.Fatalf("DTLZ7 position objectives wrong: %v", objs)
	}
	h := 3.0
	for _, fi := range []float64{0.25, 0.75} {
		h -= fi / 2 * (1 + math.Sin(3*math.Pi*fi))
	}
	if math.Abs(objs[2]-2*h) > 1e-9 {
		t.Fatalf("DTLZ7 f3 = %v, want %v", objs[2], 2*h)
	}
}

// ParetoPoint returns a decision vector on UF<variant>'s Pareto set
// with the given position parameters (pos[0] = x1, and pos[1] = x2
// for the tri-objective problems). Distance variables are set to the
// values that zero every y_j.
func (p *UF) ParetoPoint(pos []float64) []float64 {
	x := make([]float64, p.n)
	x[0] = pos[0]
	if p.variant >= 8 {
		x[1] = pos[1]
	}
	for j := 2; j <= p.n; j++ {
		switch p.variant {
		case 1, 4, 5, 6, 7:
			x[j-1] = math.Sin(6*math.Pi*x[0] + float64(j)*math.Pi/float64(p.n))
		case 2:
			a := 0.3*x[0]*x[0]*math.Cos(24*math.Pi*x[0]+4*float64(j)*math.Pi/float64(p.n)) + 0.6*x[0]
			if j%2 == 1 {
				x[j-1] = a * math.Cos(6*math.Pi*x[0]+float64(j)*math.Pi/float64(p.n))
			} else {
				x[j-1] = a * math.Sin(6*math.Pi*x[0]+float64(j)*math.Pi/float64(p.n))
			}
		case 3:
			e := 0.5 * (1 + 3*float64(j-2)/float64(p.n-2))
			x[j-1] = math.Pow(x[0], e)
		case 8, 9, 10:
			if j >= 3 {
				x[j-1] = 2 * x[1] * math.Sin(2*math.Pi*x[0]+float64(j)*math.Pi/float64(p.n))
			} else {
				x[j-1] = pos[1]
			}
		}
	}
	return x
}
