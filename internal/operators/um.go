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

func (UM) Name() string { return "um" }
func (UM) Arity() int   { return 1 }

// Apply returns one mutated copy of the parent.
func (op UM) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	checkParents(op, parents, lo, hi)
	return [][]float64{op.Mutate(parents[0], lo, hi, r)}
}

// Mutate is Apply for a caller that holds the one parent directly
// (Borg's restart injections, thousands per restart): the same child
// from the same draws, without the result slice around it.
func (op UM) Mutate(parent, lo, hi []float64, r *rng.Source) []float64 {
	child := clone(parent)
	p := op.Probability
	if p == 0 {
		p = 1 / float64(len(child))
	}
	for i := range child {
		if r.Float64() <= p {
			child[i] = r.Range(lo[i], hi[i])
		}
	}
	return child
}
