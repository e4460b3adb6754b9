package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"borgmoea"
	"borgmoea/internal/cli"
)

// runTable2 is `borgexp table2`: it regenerates the paper's Table II:
// the asynchronous master-slave Borg MOEA is executed on the virtual
// cluster for every (problem, T_F, P) combination, and the measured
// elapsed times are compared against the analytical model (Eq. 2) and
// the simulation model.
//
// The full paper configuration (N=100000, 50 replicates) takes a
// while; the defaults here use fewer replicates. Use -paper for the
// full setup, -quick for a fast smoke run.
//
// Usage:
//
//	borgexp table2 [-evals N] [-reps R] [-csv out.csv] [-quick|-paper]
func runTable2(fs *flag.FlagSet, args []string) int {
	var (
		evals    = fs.Uint64("evals", 100000, "evaluation budget N per run")
		reps     = fs.Int("reps", 5, "replicates per cell (paper: 50)")
		simReps  = fs.Int("simreps", 3, "simulation model replicates")
		seed     = fs.Uint64("seed", 1, "random seed")
		csvPath  = fs.String("csv", "", "also write results as CSV to this path")
		quick    = fs.Bool("quick", false, "small smoke configuration (N=10000, P up to 128)")
		paper    = fs.Bool("paper", false, "full paper configuration (50 replicates)")
		problems = fs.String("problems", "", "comma-separated problem subset: DTLZ2, UF11 (default both)")
		verbose  = fs.Bool("v", false, "verbose (debug-level) logging")
	)
	fs.Parse(args)
	logger := borgmoea.NewLogger(os.Stderr, *verbose)

	cfg := borgmoea.Table2Config{
		Evaluations:   *evals,
		Replicates:    *reps,
		SimReplicates: *simReps,
		Seed:          *seed,
		Progress: func(line string) {
			logger.Info(line)
		},
	}
	if *quick {
		cfg.Evaluations = 10000
		cfg.Replicates = 2
		cfg.Processors = []int{16, 32, 64, 128}
	}
	if *paper {
		cfg.Evaluations = 100000
		cfg.Replicates = 50
	}
	if *problems != "" {
		for _, name := range strings.Split(*problems, ",") {
			switch strings.ToUpper(strings.TrimSpace(name)) {
			case "DTLZ2":
				cfg.Problems = append(cfg.Problems, borgmoea.NewDTLZ2(5))
			case "UF11":
				cfg.Problems = append(cfg.Problems, borgmoea.NewUF11())
			default:
				logger.Error("unknown problem (want DTLZ2 or UF11)", "problem", name)
				return 2
			}
		}
	}

	cells, err := borgmoea.RunTable2(cfg)
	if err != nil {
		logger.Error(err.Error())
		return 1
	}
	if err := borgmoea.WriteTable2(os.Stdout, cells); err != nil {
		logger.Error(err.Error())
		return 1
	}
	if *csvPath != "" {
		if err := cli.WriteFile(*csvPath, func(w io.Writer) error {
			return borgmoea.WriteTable2CSV(w, cells)
		}); err != nil {
			logger.Error(err.Error())
			return 1
		}
		logger.Info(fmt.Sprintf("wrote %s", *csvPath))
	}
	return 0
}
