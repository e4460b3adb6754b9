package main

import (
	"flag"
	"fmt"

	"borgmoea"
)

// runCompare is `borgexp compare`: it runs the Borg MOEA head-to-head
// against the generational NSGA-II baseline on a named problem at an
// equal evaluation budget and reports quality metrics — the kind of
// comparison that motivated parallelizing Borg in the first place
// (Section II of the paper).
//
// Usage:
//
//	borgexp compare -problem DTLZ2 -objectives 5 -evals 50000
//	borgexp compare -problem ZDT4
func runCompare(fs *flag.FlagSet, args []string) int {
	var (
		problemName = fs.String("problem", "DTLZ2", "DTLZ1-7, ZDT1-4, ZDT6, UF1-11")
		objectives  = fs.Int("objectives", 3, "objectives (DTLZ problems)")
		evals       = fs.Uint64("evals", 30000, "evaluation budget per algorithm")
		seed        = fs.Uint64("seed", 1, "random seed")
		epsilon     = fs.Float64("epsilon", 0.05, "Borg archive epsilon")
	)
	fs.Parse(args)

	problem, err := borgmoea.LookupProblem(*problemName, *objectives)
	if err != nil {
		return fail(err)
	}
	m := problem.NumObjs()

	borg, err := borgmoea.NewBorg(problem, borgmoea.Config{
		Epsilons: borgmoea.UniformEpsilons(m, *epsilon),
		Seed:     *seed,
	})
	if err != nil {
		return fail(err)
	}
	borg.Run(*evals, nil)
	borgFront := borg.Archive().Objectives()

	nsga, err := borgmoea.NewNSGA2(problem, borgmoea.NSGA2Config{Seed: *seed})
	if err != nil {
		return fail(err)
	}
	nsga.Run(*evals)
	nsgaFront := nsga.Front()

	fmt.Printf("%s, %d objectives, %d evaluations each\n\n", problem.Name(), m, *evals)
	fmt.Printf("%-22s %12s %12s\n", "", "Borg", "NSGA-II")
	fmt.Printf("%-22s %12d %12d\n", "front size", len(borgFront), len(nsgaFront))

	ref := borgmoea.RefPointFor(problem.Name(), m)
	hvB := borgmoea.HypervolumeMC(borgFront, ref, borgmoea.DefaultHVSamples, 99)
	hvN := borgmoea.HypervolumeMC(nsgaFront, ref, borgmoea.DefaultHVSamples, 99)
	fmt.Printf("%-22s %12.4f %12.4f\n", fmt.Sprintf("hypervolume (ref %.1f)", ref[0]), hvB, hvN)

	if refSet := borgmoea.ReferenceFront(problem.Name(), m, 1000, 7); refSet != nil {
		fmt.Printf("%-22s %12.5f %12.5f\n", "IGD",
			borgmoea.InvertedGenerationalDistance(borgFront, refSet),
			borgmoea.InvertedGenerationalDistance(nsgaFront, refSet))
		fmt.Printf("%-22s %12.5f %12.5f\n", "additive epsilon",
			borgmoea.AdditiveEpsilon(borgFront, refSet),
			borgmoea.AdditiveEpsilon(nsgaFront, refSet))
	}
	fmt.Printf("%-22s %12.5f %12.5f\n", "spacing",
		borgmoea.Spacing(borgFront), borgmoea.Spacing(nsgaFront))
	fmt.Printf("%-22s %12.3f %12.3f\n", "coverage C(row, col)",
		borgmoea.Coverage(borgFront, nsgaFront),
		borgmoea.Coverage(nsgaFront, borgFront))
	fmt.Printf("\nBorg restarts: %d; adapted operators:", borg.Restarts())
	names := borg.OperatorNames()
	for i, p := range borg.OperatorProbabilities() {
		fmt.Printf(" %s=%.2f", names[i], p)
	}
	fmt.Println()
	return 0
}
