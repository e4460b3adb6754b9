package operators

import "borgmoea/internal/rng"

// SPX is Tsutsui, Yamamura & Higuchi's simplex crossover: the parents
// span a simplex which is expanded about its centroid by Epsilon, and
// the offspring is sampled uniformly from the expanded simplex.
// Borg's defaults: 10 parents, epsilon 3.
type SPX struct {
	Parents int
	Epsilon float64
}

// NewSPX returns SPX with Borg's defaults.
func NewSPX() SPX { return SPX{Parents: 10, Epsilon: 3} }

func (op SPX) Name() string   { return "spx" }
func (op SPX) Arity() int     { return op.Parents }
func (op SPX) Offspring() int { return 1 }

// Apply returns one offspring sampled from the expanded simplex.
func (op SPX) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	return applyOne(op, parents, lo, hi, r)
}

// Child writes one offspring sampled from the expanded simplex into
// child.
func (op SPX) Child(child []float64, parents [][]float64, lo, hi []float64, r *rng.Source, s *Scratch) {
	checkParents(op.Name(), op.Arity(), parents, lo, hi)
	k := len(parents)
	n := len(parents[0])
	s.g = grow(s.g, n)
	g := s.g
	centroidInto(g, parents)

	// Expanded vertices y_i = g + ε(x_i − g), one scratch row each.
	for i, p := range parents {
		v := s.row(i, n)
		for j := range v {
			v[j] = g[j] + op.Epsilon*(p[j]-g[j])
		}
	}
	y := s.rows

	// Uniform sampling from the simplex via Tsutsui's recurrence:
	// c_0 = 0; c_i = r_{i-1}(y_{i-1} − y_i + c_{i-1}); child = y_{k-1} + c_{k-1},
	// with r_i = u^{1/(i+1)}.
	s.d = grow(s.d, n)
	c := s.d
	clear(c)
	for i := 1; i < k; i++ {
		ri := pow(r.Float64(), 1/float64(i))
		for j := 0; j < n; j++ {
			c[j] = ri * (y[i-1][j] - y[i][j] + c[j])
		}
	}
	for j := 0; j < n; j++ {
		child[j] = y[k-1][j] + c[j]
	}
	clamp(child, lo, hi)
}
