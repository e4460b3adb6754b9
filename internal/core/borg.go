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
//
// Accept takes ownership. Clone a solution to keep it. A solution
// Suggest returned goes through minted → in flight → Accept → member
// (of the population, the archive or both) → released → reused: once
// it is in neither structure its storage goes on the Borg's free list,
// and a later Suggest or restart rewrites it as a new offspring.
// Solutions the Borg did not mint (clones, migrants, solutions the
// caller built) are never released, and one never accepted, such as a
// lost lease's original still held by a straggler, is never released
// either.
type Borg struct {
	problem problems.Problem
	cfg     Config
	rng     *rng.Source
	lo, hi  []float64

	pop  *Population
	arch *Archive
	free freeList // released storage of solutions this Borg minted

	nextID         uint64
	evaluations    uint64
	initRemaining  int
	pending        []*Solution // the last restart's undrawn batch, from pendingHead on
	pendingHead    int
	tournamentSize int

	lastCheckEvals   uint64
	lastImprovements uint64
	restarts         uint64

	work Work // Work's counts but the population's Scanned and Draws

	opSelected   []uint64 // times each operator was chosen (diagnostics)
	injectOp     operators.UM
	injectParent [1][]float64 // restart's parents argument to injectOp.Child

	// Suggest's scratch.
	probs   []float64
	parents [][]float64
	opWork  operators.Scratch
}

// New constructs a Borg instance for the problem. cfg is normalized
// (defaults filled); an invalid configuration returns an error.
func New(problem problems.Problem, cfg Config) (*Borg, error) {
	b := new(Borg)
	if err := b.Reset(problem, cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset turns b into the Borg New(problem, cfg) returns, whatever b ran
// before: every later Suggest, Accept and restart, and every value they
// produce, is New's. It is how a finished run's Borg starts the next
// one. If the problem has b's variable count, b keeps the storage of
// the solutions it minted (its free list, its population and archive
// members, and its undrawn restart injections) and mints the new run's
// solutions from it; otherwise that storage is dropped. Either way the
// population and archive keep their tables.
//
// Reset ends b's former run: nothing may keep a pointer to a solution
// b minted, its population or archive members included, since the new
// run rewrites them. An invalid configuration returns an error and
// leaves b as it was.
func (b *Borg) Reset(problem problems.Problem, cfg Config) error {
	if err := cfg.Normalize(); err != nil {
		return err
	}
	if len(cfg.Epsilons) != problem.NumObjs() {
		return fmt.Errorf("core: %d epsilons for %d objectives",
			len(cfg.Epsilons), problem.NumObjs())
	}
	lo, hi := problem.Bounds()
	if b.free.mark == nil || len(lo) != len(b.lo) {
		// A new mark disowns every solution b minted so far: none goes
		// back on the list.
		b.free = freeList{mark: new(ownerMark)}
	}
	if b.pop == nil {
		b.pop, b.arch = new(Population), new(Archive)
		b.pop.owner, b.arch.owner = &b.free, &b.free
	}
	b.pop.reset(cfg.InitialPopulationSize)
	b.arch.reset(cfg.Epsilons, len(cfg.Operators))
	for _, s := range b.pending[b.pendingHead:] {
		b.free.release(s)
	}
	clear(b.pending)
	clear(b.parents)
	r := b.rng
	if r == nil {
		r = new(rng.Source)
	}
	r.Seed(cfg.Seed ^ 0x626f7267) // "borg"
	*b = Borg{
		problem:       problem,
		cfg:           cfg,
		rng:           r,
		lo:            lo,
		hi:            hi,
		pop:           b.pop,
		arch:          b.arch,
		free:          b.free,
		pending:       b.pending[:0],
		initRemaining: cfg.InitialPopulationSize,
		opSelected:    make([]uint64, len(cfg.Operators)),
		injectOp:      operators.NewUM(),
		probs:         b.probs[:0],
		parents:       b.parents,
		opWork:        b.opWork,
	}
	b.tournamentSize = b.tournamentSizeFor(cfg.InitialPopulationSize)
	return nil
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
// to be handed out by Suggest: what is left of the last restart's
// batch, so never more than the population capacity.
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

// mint returns the next solution to hand out, with the next ID, the
// given operator and Vars for the caller to overwrite: released
// storage off the free list when there is some, else a new solution.
func (b *Borg) mint(operator int) *Solution {
	s := b.free.get()
	if s == nil {
		s = &Solution{Vars: make([]float64, len(b.lo)), owner: b.free.mark}
	}
	b.nextID++
	s.Operator, s.ID = operator, b.nextID
	return s
}

// randomSolution draws a uniform solution from the decision box.
func (b *Borg) randomSolution() *Solution {
	s := b.mint(-1)
	for i := range s.Vars {
		s.Vars[i] = b.rng.Range(b.lo[i], b.hi[i])
	}
	b.work.SampledVars += uint64(len(s.Vars))
	return s
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
		// Pop by head index; the next restart rewinds the queue, so
		// the slice never outgrows one batch.
		s := b.pending[b.pendingHead]
		b.pending[b.pendingHead] = nil
		b.pendingHead++
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
	// Parents are members, so never the free list's storage the child
	// is written into.
	child := b.mint(opIdx)
	swept := b.opWork.Swept()
	op.Child(child.Vars, parents, b.lo, b.hi, b.rng, &b.opWork)
	b.work.ChildVars += uint64(len(child.Vars))
	b.work.SweptVars += b.opWork.Swept() - swept
	return child
}

// EvaluateSolution computes the solution's objectives (and
// constraints) in place using the problem, into storage the solution
// keeps across reuse. The parallel drivers call this on worker nodes.
func EvaluateSolution(p problems.Problem, s *Solution) {
	if cp, ok := p.(problems.Constrained); ok {
		objs, constrs := s.resultsFor(p.NumObjs(), cp.NumConstraints())
		cp.EvaluateWithConstraints(s.Vars, objs, constrs)
		return
	}
	objs, _ := s.resultsFor(p.NumObjs(), 0)
	p.Evaluate(s.Vars, objs)
}

// Accept folds an evaluated solution back into the algorithm: the
// steady-state population update, the ε-archive update (which drives
// operator adaptation), and the periodic stagnation/ratio check that
// may trigger a restart. This is the T_A critical section of the
// paper's model.
//
// Accept takes ownership. Clone a solution to keep it. A solution this
// Borg's Suggest returned may be rewritten as a later offspring once it
// is in neither the population nor the archive, which for an offspring
// both reject is at once.
func (b *Borg) Accept(s *Solution) {
	if !s.Evaluated() {
		panic("core: Accept of unevaluated solution")
	}
	b.evaluations++
	b.fold(s)
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
//
// It takes ownership as Accept does, but a solution this Borg did not
// mint, such as a migrant decoded from a frame, is never rewritten: it
// only must not change while it is a member. Clone another Borg's
// member before injecting it, since that Borg may rewrite it.
func (b *Borg) InjectEvaluated(s *Solution) {
	if !s.Evaluated() {
		panic("core: InjectEvaluated of unevaluated solution")
	}
	b.fold(s)
}

// fold offers s to the population and the archive, and releases it at
// once if both reject it.
func (b *Borg) fold(s *Solution) {
	b.work.Folds++
	b.pop.Add(s, b.rng)
	b.arch.Add(s)
	b.free.release(s)
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
//
// The new batch replaces the queue, as the new population replaces the
// old: injections earlier batches left undrawn (a master with many
// evaluations in flight restarts faster than it drains them) are
// dropped. Suggest never handed those out, so they go back on the free
// list with the former members the refill left out of both structures,
// and the batch is written into that storage; only a batch larger than
// what was released allocates. The draws, IDs and their order are those
// of a restart that appends.
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
	for _, s := range b.pending[b.pendingHead:] {
		b.free.release(s)
	}
	clear(b.pending)
	b.pending, b.pendingHead = b.pending[:0], 0
	for needed := newCap - b.pop.Size(); needed > 0; needed-- {
		b.injectParent[0] = b.arch.Members()[b.rng.Intn(b.arch.Size())].Vars
		// Injections are uncredited (Operator -1) so restart noise
		// does not distort the operator-adaptation signal.
		s := b.mint(-1)
		b.injectOp.Child(s.Vars, b.injectParent[:], b.lo, b.hi, b.rng, nil)
		b.work.SampledVars += uint64(len(s.Vars))
		b.pending = append(b.pending, s)
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
