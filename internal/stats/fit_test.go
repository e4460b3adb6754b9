package stats

import (
	"math"
	"testing"

	"borgmoea/internal/rng"
)

// draw produces n samples from d.
func draw(d Distribution, n int, seed uint64) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	return xs
}

func TestFitNormalRecovers(t *testing.T) {
	xs := draw(Normal{Mu: 5, Sigma: 2}, 50000, 1)
	got, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mu-5) > 0.05 || math.Abs(got.Sigma-2) > 0.05 {
		t.Errorf("FitNormal = %v, want ~normal(5,2)", got)
	}
}

func TestFitLogNormalRecovers(t *testing.T) {
	xs := draw(LogNormal{Mu: -2, Sigma: 0.7}, 50000, 2)
	got, err := FitLogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mu+2) > 0.03 || math.Abs(got.Sigma-0.7) > 0.03 {
		t.Errorf("FitLogNormal = %v, want ~lognormal(-2,0.7)", got)
	}
}

func TestFitExponentialRecovers(t *testing.T) {
	xs := draw(NewExponential(30), 50000, 3)
	got, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Rate-30)/30 > 0.03 {
		t.Errorf("FitExponential = %v, want rate ~30", got)
	}
}

func TestFitUniformRecovers(t *testing.T) {
	xs := draw(Uniform{Lo: 3, Hi: 9}, 50000, 4)
	got, err := FitUniform(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Lo-3) > 0.01 || math.Abs(got.Hi-9) > 0.01 {
		t.Errorf("FitUniform = %v, want ~uniform(3,9)", got)
	}
	// The sample maximum must lie inside the fitted support.
	maxX := xs[0]
	for _, x := range xs {
		if x > maxX {
			maxX = x
		}
	}
	if !(maxX < got.Hi) {
		t.Errorf("sample max %v not inside fitted support [%v,%v)", maxX, got.Lo, got.Hi)
	}
}

func TestFitGammaRecovers(t *testing.T) {
	cases := []Gamma{
		{Shape: 100, Scale: 1e-4}, // the paper's CV=0.1 controlled-delay shape
		{Shape: 2, Scale: 3},
		{Shape: 0.7, Scale: 1},
	}
	for _, want := range cases {
		xs := draw(want, 50000, 5)
		got, err := FitGamma(xs)
		if err != nil {
			t.Fatalf("FitGamma(%v): %v", want, err)
		}
		if math.Abs(got.Shape-want.Shape)/want.Shape > 0.08 {
			t.Errorf("FitGamma shape = %v, want ~%v", got.Shape, want.Shape)
		}
		if math.Abs(got.Mean()-want.Mean())/want.Mean() > 0.03 {
			t.Errorf("FitGamma mean = %v, want ~%v", got.Mean(), want.Mean())
		}
	}
}

func TestFitWeibullRecovers(t *testing.T) {
	cases := []Weibull{
		{Shape: 1.5, Scale: 2},
		{Shape: 4, Scale: 0.01},
	}
	for _, want := range cases {
		xs := draw(want, 50000, 6)
		got, err := FitWeibull(xs)
		if err != nil {
			t.Fatalf("FitWeibull(%v): %v", want, err)
		}
		if math.Abs(got.Shape-want.Shape)/want.Shape > 0.05 {
			t.Errorf("FitWeibull shape = %v, want ~%v", got.Shape, want.Shape)
		}
		if math.Abs(got.Scale-want.Scale)/want.Scale > 0.05 {
			t.Errorf("FitWeibull scale = %v, want ~%v", got.Scale, want.Scale)
		}
	}
}

func TestFitErrorsOnBadSamples(t *testing.T) {
	if _, err := FitNormal([]float64{1}); err == nil {
		t.Error("FitNormal accepted a single observation")
	}
	if _, err := FitNormal([]float64{2, 2, 2}); err == nil {
		t.Error("FitNormal accepted a zero-variance sample")
	}
	if _, err := FitLogNormal([]float64{1, -1}); err == nil {
		t.Error("FitLogNormal accepted a negative observation")
	}
	if _, err := FitExponential([]float64{-0.1, 1}); err == nil {
		t.Error("FitExponential accepted a negative observation")
	}
	if _, err := FitGamma([]float64{0, 1}); err == nil {
		t.Error("FitGamma accepted a zero observation")
	}
	if _, err := FitWeibull([]float64{1, 0}); err == nil {
		t.Error("FitWeibull accepted a zero observation")
	}
	if _, err := FitUniform([]float64{3, 3}); err == nil {
		t.Error("FitUniform accepted a degenerate sample")
	}
}

// TestSelectBestPrefersTrueFamily draws from a known family and checks
// that model selection by log-likelihood picks it (or an equivalent
// special case).
func TestSelectBestPrefersTrueFamily(t *testing.T) {
	cases := []struct {
		gen        Distribution
		acceptable map[string]bool
	}{
		// Gamma with CV 0.1 looks normal-ish; accept gamma or its
		// close relatives that achieve near-identical likelihood.
		{Gamma{Shape: 2, Scale: 1}, map[string]bool{"gamma": true, "weibull": true}},
		{NewExponential(5), map[string]bool{"exponential": true, "gamma": true, "weibull": true}},
		{Normal{Mu: 100, Sigma: 1}, map[string]bool{"normal": true, "gamma": true, "lognormal": true, "weibull": true}},
		{LogNormal{Mu: 0, Sigma: 1.5}, map[string]bool{"lognormal": true}},
		{Uniform{Lo: 10, Hi: 11}, map[string]bool{"uniform": true}},
	}
	for _, c := range cases {
		xs := draw(c.gen, 20000, 7)
		best, err := SelectBest(xs)
		if err != nil {
			t.Fatalf("SelectBest(%s): %v", c.gen, err)
		}
		if !c.acceptable[best.Dist.Name()] {
			t.Errorf("SelectBest for %s picked %s (ll=%v)", c.gen, best.Dist, best.LogLikelihood)
		}
	}
}

func TestSelectBestConstantSample(t *testing.T) {
	best, err := SelectBest([]float64{6e-6, 6e-6, 6e-6, 6e-6})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := best.Dist.(Constant)
	if !ok {
		t.Fatalf("degenerate sample fitted as %s, want constant", best.Dist)
	}
	if c.Value != 6e-6 {
		t.Errorf("constant value = %v, want 6e-6", c.Value)
	}
}

func TestSelectBestEmptySample(t *testing.T) {
	if _, err := SelectBest(nil); err == nil {
		t.Error("SelectBest(nil) did not error")
	}
}

func TestFitAllSortedByLogLikelihood(t *testing.T) {
	xs := draw(Gamma{Shape: 3, Scale: 2}, 5000, 8)
	fits := FitAll(xs)
	if len(fits) < 4 {
		t.Fatalf("expected several candidate fits, got %d", len(fits))
	}
	for i := 1; i < len(fits); i++ {
		if fits[i].LogLikelihood > fits[i-1].LogLikelihood {
			t.Fatalf("fits not sorted by log-likelihood at %d", i)
		}
	}
	for _, f := range fits {
		wantAIC := 2*float64(f.NumParams) - 2*f.LogLikelihood
		if math.Abs(f.AIC-wantAIC) > 1e-9 {
			t.Errorf("%s: AIC = %v, want %v", f.Dist, f.AIC, wantAIC)
		}
	}
}

func TestDigammaTrigamma(t *testing.T) {
	// ψ(1) = -γ (Euler–Mascheroni), ψ'(1) = π²/6.
	const euler = 0.57721566490153286
	if got := digamma(1); math.Abs(got+euler) > 1e-10 {
		t.Errorf("digamma(1) = %v, want %v", got, -euler)
	}
	if got := trigamma(1); math.Abs(got-math.Pi*math.Pi/6) > 1e-10 {
		t.Errorf("trigamma(1) = %v, want π²/6", got)
	}
	// Recurrence ψ(x+1) = ψ(x) + 1/x at a few points.
	for _, x := range []float64{0.5, 2.3, 7.7, 40} {
		if got, want := digamma(x+1), digamma(x)+1/x; math.Abs(got-want) > 1e-9 {
			t.Errorf("digamma recurrence broken at %v: %v vs %v", x, got, want)
		}
		if got, want := trigamma(x+1), trigamma(x)-1/(x*x); math.Abs(got-want) > 1e-9 {
			t.Errorf("trigamma recurrence broken at %v: %v vs %v", x, got, want)
		}
	}
}

func TestLogLikelihoodMatchesManualSum(t *testing.T) {
	d := Normal{Mu: 0, Sigma: 1}
	xs := []float64{-1, 0, 2}
	want := d.LogPDF(-1) + d.LogPDF(0) + d.LogPDF(2)
	if got := LogLikelihood(d, xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogLikelihood = %v, want %v", got, want)
	}
}

func TestLeastSquares(t *testing.T) {
	// y = 2 + 3·x1 − 0.5·x2 exactly, with columns of very different
	// scales.
	var rows [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x1, x2 := float64(i), float64(i*i%17)*1e4
		rows = append(rows, []float64{1, x1, x2})
		y = append(y, 2+3*x1-0.5*x2)
	}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{2, 3, -0.5} {
		if math.Abs(beta[j]-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("beta = %v, want [2 3 -0.5]", beta)
		}
	}
	if r2 := RSquared(rows, y, beta); math.Abs(r2-1) > 1e-9 {
		t.Fatalf("exact fit R² = %v", r2)
	}
	if r2 := RSquared(rows, y, []float64{0, 0, 0}); r2 >= 0 {
		t.Fatalf("zero prediction R² = %v, want negative", r2)
	}
	for _, bad := range [][][]float64{
		nil,
		{{1, 0}, {1, 0}},         // an all-zero column
		{{1, 2}, {2, 4}, {3, 6}}, // collinear columns
		{{1, 2}, {1}},            // ragged rows
	} {
		if _, err := LeastSquares(bad, make([]float64, len(bad))); err == nil {
			t.Errorf("rows %v accepted", bad)
		}
	}
}
