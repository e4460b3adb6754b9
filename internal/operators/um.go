package operators

import "borgmoea/internal/rng"

// UM is uniform mutation: each variable is redrawn uniformly from its
// bounds with the given probability. Borg applies it with probability
// 1/L (L = number of decision variables) both as a standalone operator
// in the adaptive ensemble and to diversify restart injections.
type UM struct {
	// Probability is the per-variable mutation probability. A zero
	// value means "use 1/L", resolved at Apply time.
	Probability float64
}

// NewUM returns UM with the 1/L default.
func NewUM() UM { return UM{} }

func (UM) Name() string   { return "um" }
func (UM) Arity() int     { return 1 }
func (UM) Offspring() int { return 1 }

// Apply returns one mutated copy of the parent.
func (op UM) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	return applyOne(op, parents, lo, hi, r)
}

// Child writes the mutated copy of the parent into child.
func (op UM) Child(child []float64, parents [][]float64, lo, hi []float64, r *rng.Source, _ *Scratch) {
	checkParents(op.Name(), op.Arity(), parents, lo, hi)
	copy(child, parents[0])
	op.mutate(child, lo, hi, r)
}

// mutate applies the mutation to x in place.
func (op UM) mutate(x, lo, hi []float64, r *rng.Source) {
	p := op.Probability
	if p == 0 {
		p = 1 / float64(len(x))
	}
	for i := range x {
		if r.Float64() <= p {
			x[i] = r.Range(lo[i], hi[i])
		}
	}
}
