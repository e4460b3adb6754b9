package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"borgmoea"
)

// runScalesim is `borgexp scalesim`: it runs the paper's discrete-event
// simulation model of the asynchronous master-slave MOEA across a
// processor sweep and prints predicted time, speedup, efficiency and
// master contention — plus the analytical model for comparison.
//
// Usage:
//
//	borgexp scalesim -tf 0.01 -ta 0.000029 -tc 0.000006 -n 100000 -p 16,32,64,128,256,512,1024
//
// With -mtbf the tool switches to the fault-tolerant full driver
// (real Borg MOEA on the virtual cluster) and reports per-P efficiency
// under crash-recover worker failures:
//
//	borgexp scalesim -tf 0.01 -n 20000 -p 16,64,256 -mtbf 10 -mttr 0.5
func runScalesim(fs *flag.FlagSet, args []string) int {
	var (
		tf     = fs.Float64("tf", 0.01, "mean evaluation time TF (s)")
		tfcv   = fs.Float64("tfcv", 0.1, "TF coefficient of variation")
		ta     = fs.Float64("ta", 0.000029, "master algorithm time TA (s)")
		tc     = fs.Float64("tc", 0.000006, "one-way communication time TC (s)")
		n      = fs.Uint64("n", 100000, "evaluation budget N")
		pList  = fs.String("p", "16,32,64,128,256,512,1024", "comma-separated processor counts")
		reps   = fs.Int("reps", 3, "simulation replicates per point")
		seed   = fs.Uint64("seed", 1, "random seed")
		mtbf   = fs.Float64("mtbf", 0, "worker mean time between failures in seconds (0 = fault-free model sweep)")
		mttr   = fs.Float64("mttr", 0.5, "worker mean time to repair in seconds (with -mtbf)")
		leaseT = fs.Float64("lease-timeout", 0, "master lease timeout in seconds (0 = auto)")
	)
	fs.Parse(args)

	ps, err := parseInts(*pList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *mtbf > 0 {
		if *mttr <= 0 {
			fmt.Fprintln(os.Stderr, "-mttr must be positive when -mtbf is set")
			return 2
		}
		if err := faultSweep(ps, *tf, *tfcv, *ta, *tc, *n, *seed, *mtbf, *mttr, *leaseT); err != nil {
			return fail(err)
		}
		return 0
	}

	times := borgmoea.Times{TF: *tf, TA: *ta, TC: *tc}
	fmt.Printf("TF=%g (CV %g)  TA=%g  TC=%g  N=%d\n", *tf, *tfcv, *ta, *tc, *n)
	fmt.Printf("P_LB (Eq. 4) = %.2f    P_UB (Eq. 3) = %.0f    T_S (Eq. 1) = %.1fs\n\n",
		borgmoea.ProcessorLowerBound(times), borgmoea.ProcessorUpperBound(times),
		borgmoea.SerialTime(*n, times))
	fmt.Printf("%6s | %10s %8s %6s %7s | %10s %6s\n",
		"P", "sim T_P", "speedup", "eff", "queue", "ana T_P", "eff")
	fmt.Println(strings.Repeat("-", 70))

	ts := borgmoea.SerialTime(*n, times)
	for _, p := range ps {
		cfg := borgmoea.SimConfig{
			Processors:  p,
			Evaluations: *n,
			TF:          borgmoea.GammaFromMeanCV(*tf, *tfcv),
			TA:          borgmoea.ConstantDist(*ta),
			TC:          borgmoea.ConstantDist(*tc),
			Seed:        *seed + uint64(p),
		}
		mean, err := borgmoea.SimulateMean(cfg, *reps)
		if err != nil {
			return fail(err)
		}
		one, err := borgmoea.Simulate(cfg)
		if err != nil {
			return fail(err)
		}
		ana := borgmoea.AsyncTime(*n, p, times)
		fmt.Printf("%6d | %10.2f %8.1f %6.2f %7.2f | %10.2f %6.2f\n",
			p, mean, ts/mean, ts/(float64(p)*mean), one.MeanQueueLength,
			ana, borgmoea.AsyncEfficiency(p, times))
	}
	return 0
}

// faultSweep runs the fault-tolerant asynchronous driver (real Borg
// MOEA, DTLZ2 with 5 objectives, constant TA) under crash-recover
// worker failures and prints efficiency plus fault accounting per P.
func faultSweep(ps []int, tf, tfcv, ta, tc float64, n, seed uint64, mtbf, mttr, leaseT float64) error {
	failedFraction := mttr / (mtbf + mttr)
	fmt.Printf("fault sweep: TF=%g (CV %g)  TA=%g  TC=%g  N=%d  MTBF=%gs MTTR=%gs (%.2f%% workers down)\n\n",
		tf, tfcv, ta, tc, n, mtbf, mttr, 100*failedFraction)
	fmt.Printf("%6s | %10s %6s %6s | %8s %8s %8s %8s %6s\n",
		"P", "T_P", "eff", "done", "crashes", "recover", "resub", "lost", "dup")
	fmt.Println(strings.Repeat("-", 84))
	problem := borgmoea.NewDTLZ2(5)
	for _, p := range ps {
		res, err := borgmoea.RunAsync(borgmoea.ParallelConfig{
			Problem: problem,
			Algorithm: borgmoea.Config{
				Epsilons: borgmoea.UniformEpsilons(problem.NumObjs(), 0.15),
			},
			Processors:   p,
			Evaluations:  n,
			TF:           borgmoea.GammaFromMeanCV(tf, tfcv),
			TA:           borgmoea.ConstantDist(ta),
			TC:           borgmoea.ConstantDist(tc),
			Seed:         seed + uint64(p),
			LeaseTimeout: leaseT,
			Fault:        borgmoea.FailedFractionPlan(failedFraction, mttr, seed+uint64(p)),
		})
		if err != nil {
			return err
		}
		done := "yes"
		if !res.Completed {
			done = "NO"
		}
		fmt.Printf("%6d | %10.2f %6.2f %6s | %8d %8d %8d %8d %6d\n",
			p, res.ElapsedTime, res.Efficiency(), done,
			res.WorkerCrashes, res.WorkerRecoveries,
			res.Resubmissions, res.LostEvaluations, res.DuplicateResults)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
