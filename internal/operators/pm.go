package operators

import (
	"math"

	"borgmoea/internal/rng"
)

// PM is Deb's polynomial mutation (bounded variant). Borg applies it
// after every recombination operator with probability 1/L and
// distribution index 20.
type PM struct {
	// Probability is the per-variable mutation probability. A zero
	// value means "use 1/L".
	Probability float64
	// DistributionIndex controls perturbation size (larger = smaller
	// steps).
	DistributionIndex float64
}

// NewPM returns PM with Borg's defaults (1/L, index 20).
func NewPM() PM { return PM{DistributionIndex: 20} }

func (PM) Name() string   { return "pm" }
func (PM) Arity() int     { return 1 }
func (PM) Offspring() int { return 1 }

// Apply returns one mutated copy of the parent.
func (op PM) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	return applyOne(op, parents, lo, hi, r)
}

// Child writes the mutated copy of the parent into child.
func (op PM) Child(child []float64, parents [][]float64, lo, hi []float64, r *rng.Source, _ *Scratch) {
	checkParents(op.Name(), op.Arity(), parents, lo, hi)
	copy(child, parents[0])
	op.mutate(child, lo, hi, r)
}

// mutate applies the mutation to x in place. With x nil it makes the
// same draws for a vector of len(lo) variables and none of the
// arithmetic: the mutation of a sibling nobody keeps.
func (op PM) mutate(x, lo, hi []float64, r *rng.Source) {
	p := op.Probability
	if p == 0 {
		p = 1 / float64(len(lo))
	}
	eta := op.DistributionIndex
	for i := range lo {
		if r.Float64() > p {
			continue
		}
		lb, ub := lo[i], hi[i]
		if ub <= lb {
			continue
		}
		u := r.Float64()
		if x == nil {
			continue
		}
		xi := x[i]
		d1 := (xi - lb) / (ub - lb)
		d2 := (ub - xi) / (ub - lb)
		mpow := 1 / (eta + 1)
		var deltaq float64
		if u < 0.5 {
			xy := 1 - d1
			val := 2*u + (1-2*u)*math.Pow(xy, eta+1)
			deltaq = math.Pow(val, mpow) - 1
		} else {
			xy := 1 - d2
			val := 2*(1-u) + (2*u-1)*math.Pow(xy, eta+1)
			deltaq = 1 - math.Pow(val, mpow)
		}
		x[i] = xi + deltaq*(ub-lb)
	}
	if x != nil {
		clamp(x, lo, hi)
	}
}
