package advisor

import (
	"math"
	"sort"
	"testing"

	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// draw samples n values from dist into a slice.
func draw(t *testing.T, dist stats.Distribution, seed uint64, n int) []float64 {
	t.Helper()
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = dist.Sample(r)
	}
	return xs
}

// relErr is |a−b|/|b|.
func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// The streaming estimators exist to substitute for the batch
// statistics in internal/stats; these property tests pin the
// convergence on the same heavy-tailed shapes the paper's timing
// processes have (lognormal-ish T_A, exponential-ish failure gaps).
func TestWelfordMatchesSummarize(t *testing.T) {
	dists := map[string]stats.Distribution{
		"lognormal":   stats.LogNormal{Mu: 0, Sigma: 0.5},
		"exponential": stats.NewExponential(3),
	}
	for name, dist := range dists {
		xs := draw(t, dist, 42, 50000)
		var w Welford
		for _, x := range xs {
			w.Observe(x)
		}
		want := stats.Summarize(xs)
		if w.Count() != uint64(want.N) {
			t.Fatalf("%s: count %d, want %d", name, w.Count(), want.N)
		}
		// Welford is the numerically stable form of the same sums, so
		// agreement should be at floating-point precision.
		if e := relErr(w.Mean(), want.Mean); e > 1e-9 {
			t.Errorf("%s: mean %v vs %v (rel %v)", name, w.Mean(), want.Mean, e)
		}
		if e := relErr(w.Variance(), want.Variance); e > 1e-9 {
			t.Errorf("%s: variance %v vs %v (rel %v)", name, w.Variance(), want.Variance, e)
		}
		if e := relErr(w.CV(), want.CV()); e > 1e-9 {
			t.Errorf("%s: cv %v vs %v (rel %v)", name, w.CV(), want.CV(), e)
		}
	}
}

func TestP2QuantileConvergesToBatchQuantile(t *testing.T) {
	dists := map[string]stats.Distribution{
		"lognormal":   stats.LogNormal{Mu: 0, Sigma: 0.5},
		"exponential": stats.NewExponential(3),
	}
	quantiles := []struct {
		q   float64
		tol float64
	}{
		{0.50, 0.05},
		{0.90, 0.05},
		{0.99, 0.10}, // the tail needs more samples; allow a looser bound
	}
	for name, dist := range dists {
		xs := draw(t, dist, 7, 50000)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, tc := range quantiles {
			est := NewP2Quantile(tc.q)
			for _, x := range xs {
				est.Observe(x)
			}
			want := stats.Quantile(sorted, tc.q)
			if e := relErr(est.Value(), want); e > tc.tol {
				t.Errorf("%s p%.0f: P² %v vs batch %v (rel %v > %v)",
					name, 100*tc.q, est.Value(), want, e, tc.tol)
			}
		}
	}
}

func TestP2QuantileSmallSamples(t *testing.T) {
	// Below five observations the estimator interpolates the sorted
	// sample with the same convention as stats.Quantile.
	xs := []float64{5, 1, 4, 2}
	est := NewP2Quantile(0.5)
	for _, x := range xs {
		est.Observe(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if got, want := est.Value(), stats.Quantile(sorted, 0.5); got != want {
		t.Fatalf("small-sample median %v, want %v", got, want)
	}
	if NewP2Quantile(0.9).Value() != 0 {
		t.Fatal("empty estimator should report 0")
	}
}

func TestEWMABiasCorrection(t *testing.T) {
	e := NewEWMA(0.05)
	e.Observe(10)
	// One observation must report the observation itself, not a value
	// dragged toward zero by the empty initial state.
	if got := e.Value(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("first value %v, want 10", got)
	}
	for i := 0; i < 500; i++ {
		e.Observe(2)
	}
	if got := e.Value(); math.Abs(got-2) > 1e-6 {
		t.Fatalf("converged value %v, want 2", got)
	}
	// A constant stream is reported exactly regardless of count.
	c := NewEWMA(0.3)
	for i := 0; i < 3; i++ {
		c.Observe(7)
	}
	if got := c.Value(); math.Abs(got-7) > 1e-12 {
		t.Fatalf("constant stream %v, want 7", got)
	}
}

func TestEWMATracksRegimeChange(t *testing.T) {
	// The straggler detector relies on the decayed mean following a
	// worker that suddenly slows down.
	e := NewEWMA(0.05)
	for i := 0; i < 200; i++ {
		e.Observe(1)
	}
	for i := 0; i < 200; i++ {
		e.Observe(10)
	}
	if got := e.Value(); got < 9.9 {
		t.Fatalf("after regime change value %v, want ~10", got)
	}
}
