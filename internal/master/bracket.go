package master

import "borgmoea/internal/core"

// Bracket is an Algorithm that runs every call of the one it embeds
// between two driver hooks: Enter before the critical section, Leave
// after it, told whether the section folded a result in (Accept,
// AcceptSuggest) or only generated one (Suggest). *core.Borg is an
// Algorithm as it stands; the bracket is where a driver says what its
// T_A sample is and where it goes — a DES hold, a trace term, an
// advisor feed. Both hooks are required. They are two plain funcs and
// not one func(section func()): handing each section over as a closure
// allocates on every call of the master's hot path.
type Bracket struct {
	Algorithm
	Enter func()
	Leave func(accept bool)
}

func (b *Bracket) Suggest() *core.Solution {
	b.Enter()
	s := b.Algorithm.Suggest()
	b.Leave(false)
	return s
}

func (b *Bracket) Accept(s *core.Solution) {
	b.Enter()
	b.Algorithm.Accept(s)
	b.Leave(true)
}

func (b *Bracket) AcceptSuggest(s *core.Solution) *core.Solution {
	b.Enter()
	next := b.Algorithm.AcceptSuggest(s)
	b.Leave(true)
	return next
}
