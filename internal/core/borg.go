package core

import (
	"fmt"
	"math"

	"borgmoea/internal/operators"
	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
)

// Borg is the Borg MOEA state machine. It is not safe for concurrent
// use: in the master-slave drivers only the master touches it, exactly
// as in the paper's design (the serial algorithm component T_A is the
// master's critical section).
//
// The lifecycle is: Suggest() hands out the next solution to evaluate;
// once evaluated (by the caller, a worker, or EvaluateSolution),
// Accept() folds it into the population and archive, adapts operator
// probabilities, and triggers restarts. Run() is the serial loop.
type Borg struct {
	problem problems.Problem
	cfg     Config
	rng     *rng.Source
	lo, hi  []float64

	pop  *Population
	arch *Archive

	nextID         uint64
	evaluations    uint64
	initRemaining  int
	pending        []*Solution // restart injections awaiting evaluation, from pendingHead on
	pendingHead    int
	tournamentSize int

	lastCheckEvals   uint64
	lastImprovements uint64
	restarts         uint64

	opSelected []uint64 // times each operator was chosen (diagnostics)
	injectOp   operators.UM

	// Suggest's scratch.
	probs   []float64
	parents [][]float64
	opWork  operators.Scratch
}

// New constructs a Borg instance for the problem. cfg is normalized
// (defaults filled); an invalid configuration returns an error.
func New(problem problems.Problem, cfg Config) (*Borg, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if len(cfg.Epsilons) != problem.NumObjs() {
		return nil, fmt.Errorf("core: %d epsilons for %d objectives",
			len(cfg.Epsilons), problem.NumObjs())
	}
	lo, hi := problem.Bounds()
	b := &Borg{
		problem:       problem,
		cfg:           cfg,
		rng:           rng.New(cfg.Seed ^ 0x626f7267), // "borg"
		lo:            lo,
		hi:            hi,
		pop:           NewPopulation(cfg.InitialPopulationSize),
		arch:          NewArchive(cfg.Epsilons, len(cfg.Operators)),
		initRemaining: cfg.InitialPopulationSize,
		opSelected:    make([]uint64, len(cfg.Operators)),
		injectOp:      operators.NewUM(),
	}
	b.tournamentSize = b.tournamentSizeFor(cfg.InitialPopulationSize)
	if cfg.Initialization == InitLatinHypercube {
		// Pre-generate the stratified initial batch; Suggest serves
		// it through the pending queue.
		b.initRemaining = 0
		b.pending = b.latinHypercube(cfg.InitialPopulationSize)
	}
	return b, nil
}

// latinHypercube produces k stratified samples over the decision box.
func (b *Borg) latinHypercube(k int) []*Solution {
	n := len(b.lo)
	// strata[j] is a permutation of the k slices for variable j.
	perm := make([]int, k)
	samples := make([][]float64, k)
	for i := range samples {
		samples[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		b.rng.Perm(perm)
		width := (b.hi[j] - b.lo[j]) / float64(k)
		for i := 0; i < k; i++ {
			samples[i][j] = b.lo[j] + (float64(perm[i])+b.rng.Float64())*width
		}
	}
	out := make([]*Solution, k)
	for i, vars := range samples {
		b.nextID++
		out[i] = &Solution{Vars: vars, Operator: -1, ID: b.nextID}
	}
	return out
}

// MustNew is New that panics on configuration errors; convenient for
// tests and examples.
func MustNew(problem problems.Problem, cfg Config) *Borg {
	b, err := New(problem, cfg)
	if err != nil {
		panic(err)
	}
	return b
}

func (b *Borg) tournamentSizeFor(popSize int) int {
	k := int(math.Ceil(b.cfg.SelectionRatio * float64(popSize)))
	if k < 2 {
		k = 2
	}
	return k
}

// Problem returns the problem being optimized.
func (b *Borg) Problem() problems.Problem { return b.problem }

// Evaluations returns the number of accepted (completed) evaluations.
func (b *Borg) Evaluations() uint64 { return b.evaluations }

// Restarts returns the number of restarts triggered so far.
func (b *Borg) Restarts() uint64 { return b.restarts }

// Archive returns the ε-dominance archive.
func (b *Borg) Archive() *Archive { return b.arch }

// Population returns the working population.
func (b *Borg) Population() *Population { return b.pop }

// TournamentSize returns the current tournament size (selection
// pressure), which restarts adapt with the population size.
func (b *Borg) TournamentSize() int { return b.tournamentSize }

// PendingInjections returns the number of restart injections waiting
// to be handed out by Suggest.
func (b *Borg) PendingInjections() int { return len(b.pending) - b.pendingHead }

// OperatorNames returns the ensemble operator names in order.
func (b *Borg) OperatorNames() []string {
	names := make([]string, len(b.cfg.Operators))
	for i, op := range b.cfg.Operators {
		names[i] = op.Name()
	}
	return names
}

// OperatorSelectionCounts returns how many offspring each operator has
// produced (diagnostics; the live slice must not be modified).
func (b *Borg) OperatorSelectionCounts() []uint64 { return b.opSelected }

// OperatorProbabilities returns the current auto-adapted selection
// probabilities: Q_i = (C_i + ζ) / Σ_j (C_j + ζ), with C_i the number
// of archive members produced by operator i.
func (b *Borg) OperatorProbabilities() []float64 {
	return b.operatorProbabilitiesInto(make([]float64, 0, len(b.cfg.Operators)))
}

// operatorProbabilitiesInto computes the probabilities into dst[:0].
func (b *Borg) operatorProbabilitiesInto(dst []float64) []float64 {
	probs := dst[:0]
	total := 0.0
	for _, c := range b.arch.OperatorCounts() {
		q := float64(c) + b.cfg.Zeta
		probs = append(probs, q)
		total += q
	}
	for i := range probs {
		probs[i] /= total
	}
	return probs
}

// selectOperator samples an operator index from the adapted
// probabilities.
func (b *Borg) selectOperator() int {
	b.probs = b.operatorProbabilitiesInto(b.probs)
	u := b.rng.Float64()
	acc := 0.0
	for i, p := range b.probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(b.probs) - 1
}

// randomSolution draws a uniform solution from the decision box.
func (b *Borg) randomSolution() *Solution {
	vars := make([]float64, len(b.lo))
	for i := range vars {
		vars[i] = b.rng.Range(b.lo[i], b.hi[i])
	}
	b.nextID++
	return &Solution{Vars: vars, Operator: -1, ID: b.nextID}
}

// Suggest produces the next solution requiring evaluation. During
// initialization it returns uniform random solutions; after a restart
// it returns the queued diversity injections; otherwise it applies an
// auto-adaptively selected operator to one archive parent plus
// tournament-selected population parents.
//
// Suggest may be called any number of times before the corresponding
// Accepts arrive — the asynchronous master calls it once per idle
// worker — at the cost of the later calls seeing a slightly staler
// population, exactly as in the paper's asynchronous algorithm.
func (b *Borg) Suggest() *Solution {
	if b.initRemaining > 0 {
		b.initRemaining--
		return b.randomSolution()
	}
	if b.pendingHead < len(b.pending) {
		s := b.pending[b.pendingHead]
		b.pending[b.pendingHead] = nil
		b.pendingHead++
		if 2*b.pendingHead >= len(b.pending) {
			// At least half the slice is spent: move the live tail
			// down. That is at most one move per pop, amortised, and
			// it keeps a backlog that restarts outpace (it never
			// drains at large P) from growing with the run.
			live := copy(b.pending, b.pending[b.pendingHead:])
			clear(b.pending[live:])
			b.pending, b.pendingHead = b.pending[:live], 0
		}
		return s
	}
	if b.pop.Size() == 0 {
		// All initial solutions are in flight (large worker counts):
		// keep workers busy with more random samples.
		return b.randomSolution()
	}

	opIdx := b.selectOperator()
	op := b.cfg.Operators[opIdx]
	b.opSelected[opIdx]++

	if cap(b.parents) < op.Arity() {
		b.parents = make([][]float64, op.Arity())
	}
	parents := b.parents[:op.Arity()]
	// One parent always comes from the archive (Borg's elitist
	// recombination); it is placed first, which the parent-centric
	// operators treat as the index parent.
	if b.arch.Size() > 0 {
		parents[0] = b.arch.Members()[b.rng.Intn(b.arch.Size())].Vars
	} else {
		parents[0] = b.pop.Tournament(b.tournamentSize, b.rng).Vars
	}
	for i := 1; i < len(parents); i++ {
		parents[i] = b.pop.Tournament(b.tournamentSize, b.rng).Vars
	}
	child := make([]float64, len(b.lo))
	op.Child(child, parents, b.lo, b.hi, b.rng, &b.opWork)
	b.nextID++
	return &Solution{Vars: child, Operator: opIdx, ID: b.nextID}
}

// EvaluateSolution computes the solution's objectives (and
// constraints) in place using the problem. The parallel drivers call
// this on worker nodes.
func EvaluateSolution(p problems.Problem, s *Solution) {
	s.Objs = make([]float64, p.NumObjs())
	if cp, ok := p.(problems.Constrained); ok {
		s.Constrs = make([]float64, cp.NumConstraints())
		cp.EvaluateWithConstraints(s.Vars, s.Objs, s.Constrs)
		return
	}
	p.Evaluate(s.Vars, s.Objs)
}

// Accept folds an evaluated solution back into the algorithm: the
// steady-state population update, the ε-archive update (which drives
// operator adaptation), and the periodic stagnation/ratio check that
// may trigger a restart. This is the T_A critical section of the
// paper's model.
func (b *Borg) Accept(s *Solution) {
	if !s.Evaluated() {
		panic("core: Accept of unevaluated solution")
	}
	b.evaluations++
	b.pop.Add(s, b.rng)
	b.arch.Add(s)
	if b.evaluations-b.lastCheckEvals >= uint64(b.cfg.WindowSize) {
		b.checkRestart()
	}
}

// AcceptSuggest folds s in and generates the next offspring — Accept
// then Suggest as one call, the combined T_A critical section of the
// paper's master loop. With it *Borg is a master.Algorithm as it stands.
func (b *Borg) AcceptSuggest(s *Solution) *Solution {
	b.Accept(s)
	return b.Suggest()
}

// InjectEvaluated folds an externally evaluated solution (e.g. an
// island-model migrant) into the population and archive without
// charging a function evaluation or running restart checks.
func (b *Borg) InjectEvaluated(s *Solution) {
	if !s.Evaluated() {
		panic("core: InjectEvaluated of unevaluated solution")
	}
	b.pop.Add(s, b.rng)
	b.arch.Add(s)
}

// checkRestart applies Borg's two restart triggers: ε-progress
// stagnation over the last window, and the population-to-archive
// ratio drifting more than 25% below γ.
func (b *Borg) checkRestart() {
	improved := b.arch.Improvements() - b.lastImprovements
	ratioTrigger := float64(b.arch.Size())*b.cfg.Gamma > 1.25*float64(b.pop.Capacity())
	b.lastCheckEvals = b.evaluations
	b.lastImprovements = b.arch.Improvements()
	if improved == 0 || ratioTrigger {
		b.restart()
	}
}

// restart implements Borg's adaptive restart: resize the population to
// γ·|archive| (never below the initial size), refill it with the
// archive, and queue uniformly-mutated archive members for evaluation
// to restore diversity. Tournament size is re-derived from the new
// population size to hold selection pressure constant.
func (b *Borg) restart() {
	b.restarts++
	newCap := int(math.Round(b.cfg.Gamma * float64(b.arch.Size())))
	if newCap < b.cfg.InitialPopulationSize {
		newCap = b.cfg.InitialPopulationSize
	}
	b.pop.Clear()
	b.pop.SetCapacity(newCap, b.rng)
	for _, m := range b.arch.Members() {
		b.pop.Add(m, b.rng)
	}
	needed := newCap - b.pop.Size()
	for i := 0; i < needed; i++ {
		parent := b.arch.Members()[b.rng.Intn(b.arch.Size())]
		child := b.injectOp.Mutate(parent.Vars, b.lo, b.hi, b.rng)
		b.nextID++
		// Injections are uncredited (Operator -1) so restart noise
		// does not distort the operator-adaptation signal.
		b.pending = append(b.pending, &Solution{Vars: child, Operator: -1, ID: b.nextID})
	}
	b.tournamentSize = b.tournamentSizeFor(newCap)
}

// Step performs one serial iteration: suggest, evaluate, accept.
func (b *Borg) Step() {
	s := b.Suggest()
	EvaluateSolution(b.problem, s)
	b.Accept(s)
}

// Run executes the serial Borg MOEA until the given total number of
// function evaluations is reached. An optional observer is invoked
// after every evaluation (pass nil to disable).
func (b *Borg) Run(maxEvaluations uint64, observer func(*Borg)) {
	for b.evaluations < maxEvaluations {
		b.Step()
		if observer != nil {
			observer(b)
		}
	}
}
