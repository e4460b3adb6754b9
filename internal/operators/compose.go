package operators

import "borgmoea/internal/rng"

// WithPM wraps a recombination operator so that polynomial mutation is
// applied to every offspring, the composition Borg uses for SBX, DE,
// PCX, SPX and UNDX ("sbx+pm", "de+pm", ...).
type WithPM struct {
	Base     Operator
	Mutation PM
}

// NewWithPM composes base with Borg's default polynomial mutation.
func NewWithPM(base Operator) WithPM {
	return WithPM{Base: base, Mutation: NewPM()}
}

func (op WithPM) Name() string   { return op.Base.Name() + "+pm" }
func (op WithPM) Arity() int     { return op.Base.Arity() }
func (op WithPM) Offspring() int { return op.Base.Offspring() }

// Apply runs the base operator and mutates each offspring in place.
func (op WithPM) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	children := op.Base.Apply(parents, lo, hi, r)
	for _, c := range children {
		op.Mutation.mutate(c, lo, hi, r)
	}
	return children
}

// Child writes the base's first child, mutated, into child. Apply
// would mutate the siblings next, so their mutation draws are made
// (mutate with no vector) to leave r where Apply leaves it: the kept
// child depends only on draws made before them, and later calls see
// the same stream.
func (op WithPM) Child(child []float64, parents [][]float64, lo, hi []float64, r *rng.Source, s *Scratch) {
	op.Base.Child(child, parents, lo, hi, r, s)
	op.Mutation.mutate(child, lo, hi, r)
	for k := op.Base.Offspring(); k > 1; k-- {
		op.Mutation.mutate(nil, lo, hi, r)
	}
}

// BorgEnsemble returns the six operators of the Borg MOEA with their
// default parameterizations, recombinations composed with polynomial
// mutation, in the canonical order SBX, DE, PCX, SPX, UNDX, UM.
func BorgEnsemble() []Operator {
	return []Operator{
		NewWithPM(NewSBX()),
		NewWithPM(NewDE()),
		NewWithPM(NewPCX()),
		NewWithPM(NewSPX()),
		NewWithPM(NewUNDX()),
		NewUM(),
	}
}
