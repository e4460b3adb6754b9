package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"borgmoea"
)

// runFitdist is `borgexp fitdist`: it fits candidate probability
// distributions to a sample of timing measurements (one value per line
// on stdin or in a file) and ranks them by log-likelihood — the
// replacement for the paper's R fitting workflow (Section IV.B).
//
// With -collect it instead runs an instrumented Borg MOEA and fits
// the measured per-evaluation algorithm times T_A directly.
//
// Usage:
//
//	borgexp fitdist < ta_samples.txt
//	borgexp fitdist -file samples.txt
//	borgexp fitdist -collect -problem UF11 -evals 20000
func runFitdist(fs *flag.FlagSet, args []string) int {
	var (
		file    = fs.String("file", "", "read samples from this file (default stdin)")
		collect = fs.Bool("collect", false, "measure T_A from an instrumented run instead of reading samples")
		problem = fs.String("problem", "DTLZ2", "problem for -collect (DTLZ1-7 or UF1-11)")
		objs    = fs.Int("objectives", 5, "objectives for DTLZ problems")
		evals   = fs.Uint64("evals", 20000, "evaluations for -collect")
		seed    = fs.Uint64("seed", 1, "random seed")
	)
	fs.Parse(args)

	if *collect {
		p, err := borgmoea.LookupProblem(*problem, *objs)
		if err != nil {
			return fail(err)
		}
		rep, err := borgmoea.CollectTimings(p, *evals, *seed)
		if err != nil {
			return fail(err)
		}
		if err := borgmoea.WriteTimingReport(os.Stdout, rep); err != nil {
			return fail(err)
		}
		return 0
	}

	var r io.Reader = os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r = f
	}
	samples, err := readSamples(r)
	if err != nil {
		return fail(err)
	}
	if len(samples) == 0 {
		return fail(fmt.Errorf("no samples"))
	}
	fits := borgmoea.FitDistributions(samples)
	if len(fits) == 0 {
		return fail(fmt.Errorf("no distribution family fits this sample"))
	}
	for i, f := range fits {
		marker := " "
		if i == 0 {
			marker = "*"
		}
		fmt.Printf("%s %-32s loglik=%14.2f AIC=%14.2f\n",
			marker, f.Dist.String(), f.LogLikelihood, f.AIC)
	}
	return 0
}

func readSamples(r io.Reader) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample %q: %w", line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}
