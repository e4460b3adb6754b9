package borgmoea_test

import (
	"fmt"
	"math"

	"borgmoea"
)

// ExampleNewBorg demonstrates the serial Borg MOEA on 2-objective
// DTLZ2 and shows that it attains nearly all of the front's ideal
// hypervolume.
func ExampleNewBorg() {
	alg, err := borgmoea.NewBorg(borgmoea.NewDTLZ2(2), borgmoea.Config{
		Epsilons: borgmoea.UniformEpsilons(2, 0.01),
		Seed:     42,
	})
	if err != nil {
		panic(err)
	}
	alg.Run(20000, nil)

	front := alg.Archive().Objectives()
	hv := borgmoea.Hypervolume(front, []float64{1.1, 1.1})
	ideal := borgmoea.IdealSphereHypervolume(2, 1.1)
	fmt.Printf("normalized hypervolume > 0.95: %v\n", hv/ideal > 0.95)
	// Output:
	// normalized hypervolume > 0.95: true
}

// ExampleProcessorUpperBound reproduces the paper's Section VI worked
// example: with T_A = 29 µs, T_C = 6 µs and T_F = 10 ms, the master
// saturates at roughly 244 processors (Eq. 3).
func ExampleProcessorUpperBound() {
	t := borgmoea.Times{TF: 0.01, TA: 0.000029, TC: 0.000006}
	fmt.Printf("P_UB = %.0f\n", borgmoea.ProcessorUpperBound(t))
	// Output:
	// P_UB = 244
}

// ExampleAsyncTime evaluates the analytical model (Eq. 2) at the
// paper's Table II DTLZ2 configuration.
func ExampleAsyncTime() {
	t := borgmoea.Times{TF: 0.01, TA: 0.000029, TC: 0.000006}
	fmt.Printf("T_P(P=16) = %.1f s\n", borgmoea.AsyncTime(100000, 16, t))
	fmt.Printf("T_P(P=64) = %.1f s\n", borgmoea.AsyncTime(100000, 64, t))
	// Output:
	// T_P(P=16) = 66.9 s
	// T_P(P=64) = 15.9 s
}

// ExamplePlanHierarchy is the paper's Section VI use case: at
// T_F = 1 ms a single master saturates near P_UB ≈ 24, so the
// simulation model splits a 1024-processor machine into islands
// sized below that bound.
func ExamplePlanHierarchy() {
	t := borgmoea.Times{TF: 0.001, TA: 0.000029, TC: 0.000006}
	lb, ub := borgmoea.ProcessorLowerBound(t), borgmoea.ProcessorUpperBound(t)
	fmt.Printf("P_LB = %.2f, so at least %d processors\n", lb, int(math.Floor(lb))+1)
	fmt.Printf("P_UB = %.0f\n", ub)

	plan, err := borgmoea.PlanHierarchy(1024, t, 0.1, 20000, 99)
	if err != nil {
		panic(err)
	}
	fmt.Println(plan)
	fmt.Printf("island size below P_UB: %v\n", float64(plan.IslandSize) < ub)
	// Output:
	// P_LB = 2.01, so at least 3 processors
	// P_UB = 24
	// 1024 processors → 64 islands × 16 processors (eff 0.91/island vs 0.02 monolithic)
	// island size below P_UB: true
}

// ExampleSimulate runs the discrete-event simulation model — the
// paper's SimPy model rebuilt in Go — and shows the master saturating
// when P exceeds the Eq. 3 bound.
func ExampleSimulate() {
	mk := func(p int) borgmoea.SimConfig {
		return borgmoea.SimConfig{
			Processors:  p,
			Evaluations: 20000,
			TF:          borgmoea.ConstantDist(0.001), // P_UB ≈ 24
			TA:          borgmoea.ConstantDist(0.000029),
			TC:          borgmoea.ConstantDist(0.000006),
			Seed:        1,
		}
	}
	low, _ := borgmoea.Simulate(mk(8))
	high, _ := borgmoea.Simulate(mk(512))
	fmt.Printf("unsaturated at P=8: %v\n", low.MasterUtilization < 0.5)
	fmt.Printf("saturated at P=512: %v\n", high.MasterUtilization > 0.99)
	fmt.Printf("queue grows: %v\n", high.MeanQueueLength > low.MeanQueueLength)
	// Output:
	// unsaturated at P=8: true
	// saturated at P=512: true
	// queue grows: true
}

// ExampleRunAsync runs the asynchronous master-slave Borg MOEA on the
// virtual cluster with constant timing so the elapsed virtual time
// lands on the analytical model exactly.
func ExampleRunAsync() {
	res, err := borgmoea.RunAsync(borgmoea.ParallelConfig{
		Problem:     borgmoea.NewDTLZ2(5),
		Algorithm:   borgmoea.Config{Epsilons: borgmoea.UniformEpsilons(5, 0.15)},
		Processors:  16,
		Evaluations: 10000,
		TF:          borgmoea.ConstantDist(0.01),
		TA:          borgmoea.ConstantDist(0.000029),
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	t := borgmoea.Times{TF: res.MeanTF, TA: res.MeanTA, TC: res.MeanTC}
	predicted := borgmoea.AsyncTime(10000, 16, t)
	errPct := 100 * borgmoea.RelativeError(res.ElapsedTime, predicted)
	fmt.Printf("model error below 2%%: %v\n", errPct < 2)
	fmt.Printf("archive non-empty: %v\n", res.Final.Archive().Size() > 0)
	// Output:
	// model error below 2%: true
	// archive non-empty: true
}

// ExampleGammaFromMeanCV builds the paper's controlled evaluation
// delay: a Gamma distribution with exact mean and coefficient of
// variation 0.1.
func ExampleGammaFromMeanCV() {
	d := borgmoea.GammaFromMeanCV(0.01, 0.1)
	fmt.Printf("mean: %.4f\n", d.Mean())
	fmt.Printf("shape: %.0f\n", d.Shape)
	// Output:
	// mean: 0.0100
	// shape: 100
}

// ExampleSelectBestFit mirrors the paper's R workflow: fit candidate
// distributions to timing samples and select by log-likelihood.
func ExampleSelectBestFit() {
	src := borgmoea.GammaFromMeanCV(0.00003, 0.5) // synthetic "measured T_A"
	r := borgmoea.NewRand(7)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = src.Sample(r)
	}
	fit, err := borgmoea.SelectBestFit(samples)
	if err != nil {
		panic(err)
	}
	fmt.Printf("selected family: %s\n", fit.Dist.Name())
	// Output:
	// selected family: gamma
}
