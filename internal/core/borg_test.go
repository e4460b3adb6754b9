package core

import (
	"math"
	"reflect"
	"testing"

	"borgmoea/internal/metrics"
	"borgmoea/internal/operators"
	"borgmoea/internal/problems"
)

func dtlz2Config(m int, seed uint64) Config {
	return Config{
		Epsilons: UniformEpsilons(m, 0.05),
		Seed:     seed,
	}
}

func TestNewValidation(t *testing.T) {
	p := problems.NewDTLZ2(3)
	if _, err := New(p, Config{}); err == nil {
		t.Error("missing epsilons accepted")
	}
	if _, err := New(p, Config{Epsilons: []float64{0.1}}); err == nil {
		t.Error("epsilon/objective count mismatch accepted")
	}
	if _, err := New(p, Config{Epsilons: UniformEpsilons(3, 0.1), Gamma: 0.5}); err == nil {
		t.Error("gamma < 1 accepted")
	}
	if _, err := New(p, dtlz2Config(3, 1)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Epsilons: []float64{0.1}}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.InitialPopulationSize != 100 || c.SelectionRatio != 0.02 ||
		c.Gamma != 4 || c.WindowSize != 200 || c.Zeta != 1 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if len(c.Operators) != 6 {
		t.Fatalf("default ensemble has %d operators", len(c.Operators))
	}
}

func TestInitializationPhase(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 1))
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := b.Suggest()
		if s.Operator != -1 {
			t.Fatalf("initialization offspring %d credited to operator %d", i, s.Operator)
		}
		if s.Evaluated() {
			t.Fatal("Suggest returned an evaluated solution")
		}
		if seen[s.ID] {
			t.Fatal("duplicate solution ID")
		}
		seen[s.ID] = true
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
	}
	if b.Population().Size() != 100 {
		t.Fatalf("population size after init = %d, want 100", b.Population().Size())
	}
	if b.Evaluations() != 100 {
		t.Fatalf("evaluations = %d, want 100", b.Evaluations())
	}
	// Next suggestion is an operator offspring.
	s := b.Suggest()
	if s.Operator < 0 {
		t.Fatal("post-initialization offspring not operator-produced")
	}
}

func TestSuggestBurstBeforeAccept(t *testing.T) {
	// The async master may call Suggest hundreds of times before any
	// Accept (e.g. P=1024 workers): must never panic or return nil.
	b := MustNew(problems.NewDTLZ2(5), dtlz2Config(5, 2))
	batch := make([]*Solution, 1023)
	for i := range batch {
		s := b.Suggest()
		if s == nil {
			t.Fatal("Suggest returned nil during burst")
		}
		batch[i] = s
	}
	for _, s := range batch {
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
	}
	if b.Evaluations() != 1023 {
		t.Fatalf("evaluations = %d", b.Evaluations())
	}
}

func TestRunReachesEvaluationBudget(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 3))
	b.Run(2000, nil)
	if b.Evaluations() != 2000 {
		t.Fatalf("evaluations = %d, want 2000", b.Evaluations())
	}
	if b.Archive().Size() == 0 {
		t.Fatal("archive empty after run")
	}
}

func TestObserverCalledEveryEvaluation(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 4))
	calls := 0
	b.Run(500, func(*Borg) { calls++ })
	if calls != 500 {
		t.Fatalf("observer called %d times, want 500", calls)
	}
}

// TestConvergenceDTLZ2TwoObjectives is the serial-algorithm
// correctness test: Borg must closely approximate the 2-objective
// DTLZ2 front within a modest budget.
func TestConvergenceDTLZ2TwoObjectives(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence test skipped in -short mode")
	}
	b := MustNew(problems.NewDTLZ2(2), Config{Epsilons: UniformEpsilons(2, 0.01), Seed: 5})
	b.Run(20000, nil)

	approx := b.Archive().Objectives()
	if gd := sphereDistance(approx); gd > 0.01 {
		t.Fatalf("distance to front after 20k evals = %v, want < 0.01", gd)
	}
	refPt := []float64{1.1, 1.1}
	hv := metrics.Hypervolume(approx, refPt)
	ideal := problems.IdealSphereHypervolume(2, 1.1)
	if hv < 0.95*ideal {
		t.Fatalf("normalized HV = %v, want > 0.95", hv/ideal)
	}
}

// sphereDistance is the exact mean distance from the set to the
// DTLZ2/UF11 Pareto front (the unit sphere): mean |‖f‖₂ − 1|. It
// avoids the sampling bias of GD against a finite reference set in
// high dimensions.
func sphereDistance(set [][]float64) float64 {
	sum := 0.0
	for _, f := range set {
		n := 0.0
		for _, x := range f {
			n += x * x
		}
		sum += math.Abs(math.Sqrt(n) - 1)
	}
	return sum / float64(len(set))
}

// TestConvergenceDTLZ2FiveObjectives exercises the paper's actual
// problem dimensionality.
func TestConvergenceDTLZ2FiveObjectives(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence test skipped in -short mode")
	}
	b := MustNew(problems.NewDTLZ2(5), Config{Epsilons: UniformEpsilons(5, 0.1), Seed: 6})
	b.Run(30000, nil)
	approx := b.Archive().Objectives()
	if gd := sphereDistance(approx); gd > 0.05 {
		t.Fatalf("5-objective mean front distance = %v, want < 0.05", gd)
	}
	if b.Archive().Size() < 20 {
		t.Fatalf("archive size %d suspiciously small", b.Archive().Size())
	}
}

// TestUF11HarderThanDTLZ2: within an equal small budget, the rotated
// problem must converge more slowly — the premise of the paper's
// problem pairing.
func TestUF11HarderThanDTLZ2(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence comparison skipped in -short mode")
	}
	const budget = 15000

	bd := MustNew(problems.NewDTLZ2(5), Config{Epsilons: UniformEpsilons(5, 0.1), Seed: 7})
	bd.Run(budget, nil)
	gdD := sphereDistance(bd.Archive().Objectives())

	bu := MustNew(problems.NewUF11(), Config{Epsilons: UniformEpsilons(5, 0.1), Seed: 7})
	bu.Run(budget, nil)
	gdU := sphereDistance(bu.Archive().Objectives())

	if gdU <= gdD {
		t.Fatalf("UF11 GD (%v) not worse than DTLZ2 GD (%v) at equal budget", gdU, gdD)
	}
}

func TestOperatorProbabilitiesAdapt(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 8))
	probs0 := b.OperatorProbabilities()
	for i, p := range probs0 {
		if math.Abs(p-1.0/6) > 1e-12 {
			t.Fatalf("initial probability[%d] = %v, want 1/6", i, p)
		}
	}
	b.Run(5000, nil)
	probs := b.OperatorProbabilities()
	sum := 0.0
	uniform := true
	for _, p := range probs {
		sum += p
		if math.Abs(p-1.0/6) > 0.02 {
			uniform = false
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if uniform {
		t.Fatal("operator probabilities did not adapt away from uniform")
	}
}

func TestRestartsTriggerAndResize(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), Config{
		Epsilons:   UniformEpsilons(3, 0.02),
		WindowSize: 100,
		Seed:       9,
	})
	b.Run(20000, nil)
	if b.Restarts() == 0 {
		t.Fatal("no restarts in 20k evaluations with a fine archive resolution")
	}
	// After restarts with a large archive, population capacity tracks
	// γ·|archive| (never below initial).
	wantMin := b.Population().Capacity()
	if wantMin < 100 {
		t.Fatalf("population capacity %d below initial", wantMin)
	}
	if b.Archive().Size() > 100 && b.Population().Capacity() < 2*b.Archive().Size() {
		t.Fatalf("population capacity %d did not scale with archive %d",
			b.Population().Capacity(), b.Archive().Size())
	}
}

func TestRestartQueuesInjections(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 10))
	// Prime with initialization.
	for i := 0; i < 150; i++ {
		s := b.Suggest()
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
	}
	b.restart()
	if b.PendingInjections() == 0 {
		t.Fatal("restart queued no injections")
	}
	if b.Population().Size() != b.Archive().Size() {
		t.Fatalf("population after restart has %d members, want |archive| = %d",
			b.Population().Size(), b.Archive().Size())
	}
	// Suggest drains injections first.
	pend := b.PendingInjections()
	s := b.Suggest()
	if b.PendingInjections() != pend-1 {
		t.Fatal("Suggest did not drain the injection queue")
	}
	if s.Operator != -1 {
		t.Fatal("injection credited to an operator")
	}
}

func TestTournamentSizeScalesWithPopulation(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 11))
	if b.TournamentSize() != 2 {
		t.Fatalf("initial tournament size = %d, want 2 (2%% of 100)", b.TournamentSize())
	}
	for i := 0; i < 150; i++ {
		s := b.Suggest()
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
	}
	// Force a large population via a fat archive.
	for b.Archive().Size() < 200 {
		s := b.Suggest()
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
		if b.Evaluations() > 100000 {
			t.Skip("archive did not reach 200 members; resolution too coarse")
		}
	}
	b.restart()
	wantK := int(math.Ceil(0.02 * float64(b.Population().Capacity())))
	if wantK < 2 {
		wantK = 2
	}
	if b.TournamentSize() != wantK {
		t.Fatalf("tournament size = %d, want %d for capacity %d",
			b.TournamentSize(), wantK, b.Population().Capacity())
	}
}

func TestAcceptUnevaluatedPanics(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 12))
	defer func() {
		if recover() == nil {
			t.Fatal("Accept of unevaluated solution did not panic")
		}
	}()
	b.Accept(&Solution{Vars: make([]float64, 12)})
}

// TestAcceptSuggestEqualsAcceptThenSuggest: the combined call is
// exactly Accept followed by Suggest — same offspring, archive,
// population and RNG state at every step of a fixed-seed run that goes
// through initialization, adaptation and restarts.
func TestAcceptSuggestEqualsAcceptThenSuggest(t *testing.T) {
	p := problems.NewDTLZ2(3)
	split, joint := MustNew(p, dtlz2Config(3, 42)), MustNew(p, dtlz2Config(3, 42))
	s1, s2 := split.Suggest(), joint.Suggest()
	for step := 0; step < 5000; step++ {
		EvaluateSolution(p, s1)
		EvaluateSolution(p, s2)
		split.Accept(s1)
		s1 = split.Suggest()
		s2 = joint.AcceptSuggest(s2)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("step %d: offspring differ: %+v vs %+v", step, s1, s2)
		}
		if *split.rng != *joint.rng {
			t.Fatalf("step %d: RNG state diverged", step)
		}
	}
	if !reflect.DeepEqual(split.Archive().Members(), joint.Archive().Members()) {
		t.Fatal("archives differ")
	}
	if !reflect.DeepEqual(split.Population().members, joint.Population().members) {
		t.Fatal("populations differ")
	}
	if joint.Restarts() == 0 {
		t.Fatal("run never restarted; the comparison missed the restart path")
	}
	if split.Restarts() != joint.Restarts() || split.Evaluations() != joint.Evaluations() {
		t.Fatalf("counters differ: restarts %d/%d, evaluations %d/%d",
			split.Restarts(), joint.Restarts(), split.Evaluations(), joint.Evaluations())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() [][]float64 {
		b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 42))
		b.Run(3000, nil)
		return b.Archive().Objectives()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replays produced different archive sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("identical seeds produced different archives")
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed uint64) int {
		b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, seed))
		b.Run(2000, nil)
		return int(b.Archive().Improvements())
	}
	if run(1) == run(2) && run(3) == run(4) && run(5) == run(6) {
		t.Fatal("suspiciously identical trajectories across seeds")
	}
}

func TestSuggestOffspringWithinBounds(t *testing.T) {
	b := MustNew(problems.NewUF11(), Config{Epsilons: UniformEpsilons(5, 0.1), Seed: 13})
	lo, hi := b.Problem().Bounds()
	for i := 0; i < 3000; i++ {
		s := b.Suggest()
		for j, x := range s.Vars {
			if x < lo[j] || x > hi[j] || math.IsNaN(x) {
				t.Fatalf("suggested solution outside bounds at var %d: %v", j, x)
			}
		}
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
	}
}

// constrainedToy is a minimal constrained problem: minimize (x, 1-x)
// subject to x >= 0.25.
type constrainedToy struct{}

func (constrainedToy) Name() string               { return "toy-constrained" }
func (constrainedToy) NumVars() int               { return 1 }
func (constrainedToy) NumObjs() int               { return 2 }
func (constrainedToy) NumConstraints() int        { return 1 }
func (constrainedToy) Bounds() (lo, hi []float64) { return []float64{0}, []float64{1} }
func (p constrainedToy) Evaluate(v, o []float64)  { p.EvaluateWithConstraints(v, o, make([]float64, 1)) }
func (constrainedToy) EvaluateWithConstraints(v, o, c []float64) {
	o[0] = v[0]
	o[1] = 1 - v[0]
	if v[0] < 0.25 {
		c[0] = 0.25 - v[0]
	} else {
		c[0] = 0
	}
}

func TestConstrainedProblemRespected(t *testing.T) {
	b := MustNew(constrainedToy{}, Config{Epsilons: UniformEpsilons(2, 0.01), Seed: 14})
	b.Run(5000, nil)
	for _, m := range b.Archive().Members() {
		if m.Violation() > 0 {
			t.Fatalf("infeasible solution in final archive: vars=%v", m.Vars)
		}
		if m.Vars[0] < 0.25-1e-9 {
			t.Fatalf("archive member violates constraint: x = %v", m.Vars[0])
		}
	}
}

func BenchmarkBorgStepDTLZ2_5(b *testing.B) {
	alg := MustNew(problems.NewDTLZ2(5), Config{Epsilons: UniformEpsilons(5, 0.1), Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Step()
	}
}

func BenchmarkBorgStepUF11(b *testing.B) {
	alg := MustNew(problems.NewUF11(), Config{Epsilons: UniformEpsilons(5, 0.1), Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Step()
	}
}

// TestSuggestAllocs: a steady-state operator Suggest allocates exactly
// the offspring's Solution and its Vars — the operators work in the
// Borg's own scratch — for each operator of the ensemble alone.
func TestSuggestAllocs(t *testing.T) {
	for _, op := range operators.BorgEnsemble() {
		cfg := dtlz2Config(5, 6)
		cfg.Operators = []operators.Operator{op}
		b := MustNew(problems.NewDTLZ2(5), cfg)
		b.Run(1000, nil)
		for b.PendingInjections() > 0 {
			b.Suggest()
		}
		for i := 0; i < 200; i++ {
			b.Suggest() // warm the operator scratch
		}
		if a := testing.AllocsPerRun(200, func() { b.Suggest() }); a != 2 {
			t.Errorf("%s: Suggest allocates %v objects, want 2 (Solution and Vars)", op.Name(), a)
		}
	}
}
