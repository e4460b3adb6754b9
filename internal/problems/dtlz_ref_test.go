package problems

import (
	"fmt"
	"math"
	"testing"

	"borgmoea/internal/rng"
)

// refEvalSpherical is evalSpherical as it was before the running
// product: the textbook nested loop, which recomputes every θ_j and
// its cosine once per objective (O(m²) Pow, Cos and Sin calls),
// verbatim apart from the ref prefix. TestEvalSphericalMatchesReference
// holds evalSpherical to it bit for bit.
func refEvalSpherical(pos []float64, g, alpha float64, objs []float64) {
	m := len(objs)
	for i := 0; i < m; i++ {
		f := 1 + g
		for j := 0; j < m-1-i; j++ {
			f *= math.Cos(math.Pow(pos[j], alpha) * math.Pi / 2)
		}
		if i > 0 {
			f *= math.Sin(math.Pow(pos[m-1-i], alpha) * math.Pi / 2)
		}
		objs[i] = f
	}
}

// TestEvalSphericalMatchesReference: for m = 2…10 objectives, α = 1
// (DTLZ2/3, and DTLZ5/6's θ) and α = 100 (DTLZ4), random positions
// with the bounds 0 and 1 mixed in and g from 0 up to DTLZ3's scale,
// every objective has the reference's bits.
func TestEvalSphericalMatchesReference(t *testing.T) {
	r := rng.New(52)
	for m := 2; m <= 10; m++ {
		pos := make([]float64, m-1)
		got, want := make([]float64, m), make([]float64, m)
		for _, alpha := range []float64{1, 100} {
			for trial := 0; trial < 2000; trial++ {
				for j := range pos {
					switch r.Intn(8) {
					case 0:
						pos[j] = 0
					case 1:
						pos[j] = 1
					default:
						pos[j] = r.Float64()
					}
				}
				g := []float64{0, r.Float64(), 1000 * r.Float64()}[trial%3]
				evalSpherical(pos, g, alpha, got)
				refEvalSpherical(pos, g, alpha, want)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("m=%d α=%v pos=%v g=%v: objective %d is %v, reference %v",
							m, alpha, pos, g, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkEvalSpherical times the running product against the nested
// loop on DTLZ2_5's and DTLZ4_5's geometry.
func BenchmarkEvalSpherical(b *testing.B) {
	pos, objs := []float64{0.1, 0.3, 0.6, 0.9}, make([]float64, 5)
	for _, alpha := range []float64{1, 100} {
		for _, impl := range []struct {
			name string
			eval func(pos []float64, g, alpha float64, objs []float64)
		}{{"running", evalSpherical}, {"reference", refEvalSpherical}} {
			b.Run(fmt.Sprintf("alpha=%v/%s", alpha, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.eval(pos, 0.25, alpha, objs)
				}
			})
		}
	}
}
