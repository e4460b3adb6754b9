package stats

import (
	"math"
	"testing"
	"testing/quick"

	"borgmoea/internal/rng"
)

// sampleMoments draws n samples and returns the empirical mean and
// variance.
func sampleMoments(t *testing.T, d Distribution, n int, seed uint64) (mean, variance float64) {
	t.Helper()
	r := rng.New(seed)
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		sum += x
		sumsq += x * x
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return mean, variance
}

// checkMoments verifies that sampling matches the declared Mean/Var.
func checkMoments(t *testing.T, d Distribution) {
	t.Helper()
	const n = 100000
	mean, variance := sampleMoments(t, d, n, 12345)
	wantMean, wantVar := d.Mean(), d.Var()
	tolM := 0.03*math.Abs(wantMean) + 4*math.Sqrt(wantVar/n) + 1e-12
	if math.Abs(mean-wantMean) > tolM {
		t.Errorf("%s: sample mean %v, declared %v", d, mean, wantMean)
	}
	if wantVar > 0 {
		if math.Abs(variance-wantVar) > 0.1*wantVar {
			t.Errorf("%s: sample variance %v, declared %v", d, variance, wantVar)
		}
	} else if math.Abs(variance) > 1e-12 {
		t.Errorf("%s: sample variance %v, declared 0", d, variance)
	}
}

func TestMomentsAllFamilies(t *testing.T) {
	dists := []Distribution{
		NewConstant(0.01),
		Uniform{Lo: 2, Hi: 5},
		Normal{Mu: 10, Sigma: 3},
		LogNormal{Mu: -1, Sigma: 0.5},
		NewExponential(100),
		Gamma{Shape: 100, Scale: 1e-4},
		GammaFromMeanCV(0.01, 0.1),
		Weibull{Shape: 2, Scale: 3},
	}
	for _, d := range dists {
		d := d
		t.Run(d.Name(), func(t *testing.T) { checkMoments(t, d) })
	}
}

func TestGammaFromMeanCV(t *testing.T) {
	g := GammaFromMeanCV(0.01, 0.1)
	if math.Abs(g.Mean()-0.01) > 1e-12 {
		t.Errorf("mean = %v, want 0.01", g.Mean())
	}
	if cv := math.Sqrt(g.Var()) / g.Mean(); math.Abs(cv-0.1) > 1e-12 {
		t.Errorf("cv = %v, want 0.1", cv)
	}
}

func TestLogPDFSupport(t *testing.T) {
	cases := []struct {
		d Distribution
		x float64
	}{
		{Uniform{Lo: 0, Hi: 1}, -0.5},
		{Uniform{Lo: 0, Hi: 1}, 1.5},
		{NewExponential(1), -1},
		{Gamma{Shape: 2, Scale: 1}, 0},
		{Gamma{Shape: 2, Scale: 1}, -1},
		{Weibull{Shape: 2, Scale: 1}, -1},
		{LogNormal{Mu: 0, Sigma: 1}, 0},
		{NewConstant(3), 2.9},
	}
	for _, c := range cases {
		if lp := c.d.LogPDF(c.x); !math.IsInf(lp, -1) {
			t.Errorf("%s: LogPDF(%v) = %v, want -Inf (outside support)", c.d, c.x, lp)
		}
	}
}

func TestLogPDFIntegratesToOne(t *testing.T) {
	// Crude trapezoid check that the densities are normalized.
	cases := []struct {
		d      Distribution
		lo, hi float64
	}{
		{Normal{Mu: 0, Sigma: 1}, -8, 8},
		{Uniform{Lo: 1, Hi: 3}, 1, 3},
		{NewExponential(2), 0, 20},
		{Gamma{Shape: 3, Scale: 0.5}, 0, 20},
		{Weibull{Shape: 1.5, Scale: 2}, 0, 30},
		{LogNormal{Mu: 0, Sigma: 0.5}, 1e-9, 20},
	}
	for _, c := range cases {
		const steps = 200000
		h := (c.hi - c.lo) / steps
		sum := 0.0
		for i := 0; i <= steps; i++ {
			x := c.lo + float64(i)*h
			p := math.Exp(c.d.LogPDF(x))
			if i == 0 || i == steps {
				p /= 2
			}
			sum += p
		}
		sum *= h
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: density integrates to %v, want ~1", c.d, sum)
		}
	}
}

func TestConstantLogPDF(t *testing.T) {
	c := NewConstant(2)
	if lp := c.LogPDF(2); lp != 0 {
		t.Errorf("LogPDF at the point mass = %v, want 0", lp)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"exponential rate<=0", func() { NewExponential(0) }},
		{"gammaFromMeanCV mean<=0", func() { GammaFromMeanCV(0, 0.1) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("constructor did not panic")
				}
			}()
			c.fn()
		})
	}
}

func TestWeibullSampleSupport(t *testing.T) {
	err := quick.Check(func(shapeRaw, scaleRaw uint16) bool {
		shape := 0.3 + float64(shapeRaw%50)/10
		scale := 0.1 + float64(scaleRaw%100)/10
		d := Weibull{Shape: shape, Scale: scale}
		r := rng.New(uint64(shapeRaw)<<16 | uint64(scaleRaw))
		for i := 0; i < 100; i++ {
			if d.Sample(r) < 0 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
