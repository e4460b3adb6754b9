package problems

import (
	"math"
	"testing"

	"borgmoea/internal/rng"
)

func TestSchaffer(t *testing.T) {
	p := NewSchaffer()
	objs := make([]float64, 2)
	p.Evaluate([]float64{0}, objs)
	if objs[0] != 0 || objs[1] != 4 {
		t.Fatalf("f(0) = %v, want (0, 4)", objs)
	}
	p.Evaluate([]float64{2}, objs)
	if objs[0] != 4 || objs[1] != 0 {
		t.Fatalf("f(2) = %v, want (4, 0)", objs)
	}
	// Pareto identity on x ∈ [0,2]: √f1 + √f2 = 2.
	for _, x := range []float64{0.3, 1, 1.7} {
		p.Evaluate([]float64{x}, objs)
		if s := math.Sqrt(objs[0]) + math.Sqrt(objs[1]); math.Abs(s-2) > 1e-12 {
			t.Fatalf("√f1+√f2 = %v at x=%v, want 2", s, x)
		}
	}
}

func TestFonsecaFleming(t *testing.T) {
	p := NewFonsecaFleming(3)
	objs := make([]float64, 2)
	inv := 1 / math.Sqrt(3)
	// At x = (1/√3,...) f1 = 0 and f2 = 1 − e^{−4·...}: an extreme of
	// the front.
	p.Evaluate([]float64{inv, inv, inv}, objs)
	if math.Abs(objs[0]) > 1e-12 {
		t.Fatalf("f1 at its optimum = %v, want 0", objs[0])
	}
	if objs[1] <= 0.9 {
		t.Fatalf("f2 at f1's optimum = %v, want near 1", objs[1])
	}
	// Objectives stay in [0, 1] (1 − e^{−s} reaches 1.0 in double
	// precision for large s).
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		vars := []float64{r.Range(-4, 4), r.Range(-4, 4), r.Range(-4, 4)}
		p.Evaluate(vars, objs)
		for _, f := range objs {
			if f < 0 || f > 1 {
				t.Fatalf("objective %v outside [0,1]", f)
			}
		}
	}
}

func TestKursaweFinite(t *testing.T) {
	p := NewKursawe(3)
	objs := make([]float64, 2)
	r := rng.New(2)
	for i := 0; i < 500; i++ {
		vars := []float64{r.Range(-5, 5), r.Range(-5, 5), r.Range(-5, 5)}
		p.Evaluate(vars, objs)
		for _, f := range objs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatal("Kursawe produced non-finite objective")
			}
		}
	}
	// f1 is bounded below by -10(n-1) (all pairwise distances 0).
	p.Evaluate([]float64{0, 0, 0}, objs)
	if math.Abs(objs[0]+20) > 1e-9 {
		t.Fatalf("Kursawe f1(0) = %v, want -20", objs[0])
	}
}

func TestClassicConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFonsecaFleming(0) },
		func() { NewKursawe(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad constructor did not panic")
				}
			}()
			fn()
		}()
	}
}
