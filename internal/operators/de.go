package operators

import "borgmoea/internal/rng"

// DE is differential evolution (rand/1/bin) as used inside Borg:
// crossover rate 0.1 and step size 0.5. The first parent is the base
// vector the trial is built on; the remaining three supply the
// difference. Borg's convention of centering variation on the
// selected parent is preserved by putting that parent first.
type DE struct {
	// CrossoverRate is the per-variable probability of taking the
	// mutant component (CR).
	CrossoverRate float64
	// StepSize scales the difference vector (F).
	StepSize float64
}

// NewDE returns DE with Borg's defaults (CR 0.1, F 0.5).
func NewDE() DE { return DE{CrossoverRate: 0.1, StepSize: 0.5} }

func (DE) Name() string   { return "de" }
func (DE) Arity() int     { return 4 }
func (DE) Offspring() int { return 1 }

// Apply returns one trial vector.
func (op DE) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	return applyOne(op, parents, lo, hi, r)
}

// Child writes the trial vector into child.
func (op DE) Child(child []float64, parents [][]float64, lo, hi []float64, r *rng.Source, _ *Scratch) {
	checkParents(op.Name(), op.Arity(), parents, lo, hi)
	base, a, b, c := parents[0], parents[1], parents[2], parents[3]
	copy(child, base)
	n := len(child)
	jrand := r.Intn(n)
	for i := range child {
		if r.Float64() <= op.CrossoverRate || i == jrand {
			child[i] = a[i] + op.StepSize*(b[i]-c[i])
		}
	}
	clamp(child, lo, hi)
}
