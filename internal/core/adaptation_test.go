package core

import (
	"math"
	"testing"

	"borgmoea/internal/operators"
	"borgmoea/internal/problems"
)

// TestOperatorSelectionFollowsProbabilities: with archive credit
// pinned, the roulette must sample operators at the advertised rates.
func TestOperatorSelectionFollowsProbabilities(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 21))
	// Prime past initialization.
	for i := 0; i < 120; i++ {
		s := b.Suggest()
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
	}
	// Pin the archive credit: operator 0 gets 14 credits, rest 0, so
	// with ζ=1 and 6 operators Q_0 = 15/20 = 0.75, others 0.05.
	counts := b.arch.OperatorCounts()
	for i := range counts {
		counts[i] = 0
	}
	counts[0] = 14

	probs := b.OperatorProbabilities()
	if math.Abs(probs[0]-0.75) > 1e-12 {
		t.Fatalf("probability[0] = %v, want 0.75", probs[0])
	}
	const trials = 20000
	selected := make([]int, len(counts))
	for i := 0; i < trials; i++ {
		selected[b.selectOperator()]++
	}
	if f := float64(selected[0]) / trials; math.Abs(f-0.75) > 0.02 {
		t.Fatalf("operator 0 selected at rate %v, want ~0.75", f)
	}
	for i := 1; i < len(selected); i++ {
		if f := float64(selected[i]) / trials; math.Abs(f-0.05) > 0.01 {
			t.Fatalf("operator %d selected at rate %v, want ~0.05", i, f)
		}
	}
}

// TestStagnationTriggersRestart: a window with zero ε-progress must
// restart even when the population/archive ratio is healthy.
func TestStagnationTriggersRestart(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), Config{
		Epsilons:   UniformEpsilons(3, 0.05),
		WindowSize: 50,
		Seed:       22,
	})
	for i := 0; i < 120; i++ {
		s := b.Suggest()
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
	}
	restartsBefore := b.Restarts()
	// Feed dominated solutions until at least one full window holds
	// zero ε-progress (the first window boundary may still contain
	// live evaluations from the priming loop).
	dead := &Solution{Vars: make([]float64, b.Problem().NumVars())}
	for i := range dead.Vars {
		dead.Vars[i] = 0.99
	}
	EvaluateSolution(b.Problem(), dead)
	for i := 0; i < 120; i++ {
		b.Accept(dead.Clone())
	}
	if b.Restarts() == restartsBefore {
		t.Fatal("stagnant window did not trigger a restart")
	}
}

// TestRatioTriggersRestart: growing the archive past 1.25·cap/γ must
// trigger a population resize even with steady ε-progress.
func TestRatioTriggersRestart(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(2), Config{
		Epsilons:   UniformEpsilons(2, 0.002), // very fine: archive grows fast
		WindowSize: 100,
		Seed:       23,
	})
	b.Run(6000, nil)
	if b.Restarts() == 0 {
		t.Fatal("archive growth never triggered a restart")
	}
	gamma := 4.0
	arch := float64(b.Archive().Size())
	cap64 := float64(b.Population().Capacity())
	if arch > 100 && cap64 < gamma*arch/1.5 {
		t.Fatalf("population capacity %v not tracking γ·|archive| = %v", cap64, gamma*arch)
	}
}

// TestCustomOperatorEnsemble: Borg must run with a reduced, custom
// ensemble (e.g. SBX-only ablation).
func TestCustomOperatorEnsemble(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(2), Config{
		Epsilons:  UniformEpsilons(2, 0.02),
		Operators: []operators.Operator{operators.NewWithPM(operators.NewSBX())},
		Seed:      24,
	})
	b.Run(3000, nil)
	probs := b.OperatorProbabilities()
	if len(probs) != 1 || probs[0] != 1 {
		t.Fatalf("single-operator probabilities = %v", probs)
	}
	if b.Archive().Size() == 0 {
		t.Fatal("SBX-only Borg produced empty archive")
	}
	names := b.OperatorNames()
	if len(names) != 1 || names[0] != "sbx+pm" {
		t.Fatalf("names = %v", names)
	}
}

// TestSelectionCountsSumToSuggestions: diagnostics must account for
// every operator-produced offspring.
func TestSelectionCountsSumToSuggestions(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 25))
	operatorSuggestions := 0
	for i := 0; i < 2000; i++ {
		s := b.Suggest()
		if s.Operator >= 0 {
			operatorSuggestions++
		}
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
	}
	total := uint64(0)
	for _, c := range b.OperatorSelectionCounts() {
		total += c
	}
	if total != uint64(operatorSuggestions) {
		t.Fatalf("selection counts sum %d != operator-produced offspring %d",
			total, operatorSuggestions)
	}
}

// TestInjectEvaluatedDoesNotCount verifies the island-migrant path.
func TestInjectEvaluatedDoesNotCount(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 26))
	for i := 0; i < 50; i++ {
		s := b.Suggest()
		EvaluateSolution(b.Problem(), s)
		b.Accept(s)
	}
	evals := b.Evaluations()
	migrant := &Solution{Vars: make([]float64, b.Problem().NumVars())}
	for i := range migrant.Vars {
		migrant.Vars[i] = 0.5
	}
	EvaluateSolution(b.Problem(), migrant)
	b.InjectEvaluated(migrant)
	if b.Evaluations() != evals {
		t.Fatal("InjectEvaluated charged a function evaluation")
	}
	if b.Archive().Size() == 0 {
		t.Fatal("archive ignored the injected optimum-distance solution")
	}
}

func TestInjectEvaluatedPanicsOnUnevaluated(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 27))
	defer func() {
		if recover() == nil {
			t.Fatal("InjectEvaluated accepted an unevaluated solution")
		}
	}()
	b.InjectEvaluated(&Solution{Vars: make([]float64, 12)})
}
