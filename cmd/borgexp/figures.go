package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"borgmoea"
)

// runFigures is `borgexp figures`: it regenerates the paper's Figures
// 3, 4 and 5.
//
//	borgexp figures -fig 3            # DTLZ2 hypervolume-threshold speedup (3 panels)
//	borgexp figures -fig 4            # UF11 hypervolume-threshold speedup
//	borgexp figures -fig 5            # sync vs async efficiency surfaces
//
// Each figure prints a textual table/heatmap; -csv writes the series
// to a file for external plotting.
func runFigures(fs *flag.FlagSet, args []string) int {
	var (
		fig     = fs.Int("fig", 3, "figure to regenerate: 3, 4 or 5")
		evals   = fs.Uint64("evals", 50000, "evaluation budget per run (figs 3-4)")
		reps    = fs.Int("reps", 2, "replicates per configuration (figs 3-4; paper: 50)")
		tfList  = fs.String("tf", "", "comma-separated TF means (default per figure)")
		seed    = fs.Uint64("seed", 1, "random seed")
		csvPath = fs.String("csv", "", "also write CSV to this path")
		quick   = fs.Bool("quick", false, "small smoke configuration")
	)
	fs.Parse(args)

	var csvW io.Writer
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		csvW = f
	}

	switch *fig {
	case 3, 4:
		problem := borgmoea.Problem(borgmoea.NewDTLZ2(5))
		if *fig == 4 {
			problem = borgmoea.NewUF11()
		}
		tfs := []float64{0.001, 0.01, 0.1}
		if *tfList != "" {
			var err error
			if tfs, err = parseFloats(*tfList); err != nil {
				return fail(err)
			}
		}
		procs := []int{16, 32, 64, 128, 256, 512, 1024}
		if *quick {
			tfs = []float64{0.01}
			procs = []int{16, 64, 256}
			*evals = 10000
			*reps = 1
		}
		for _, tf := range tfs {
			res, err := borgmoea.RunSpeedup(borgmoea.SpeedupConfig{
				Problem:     problem,
				TFMean:      tf,
				Processors:  procs,
				Evaluations: *evals,
				Replicates:  *reps,
				Seed:        *seed,
				Progress:    progress,
			})
			if err != nil {
				return fail(err)
			}
			if err := borgmoea.WriteSpeedup(os.Stdout, res); err != nil {
				return fail(err)
			}
			fmt.Println()
			if csvW != nil {
				if err := borgmoea.WriteSpeedupCSV(csvW, res); err != nil {
					return fail(err)
				}
			}
		}
	case 5:
		cfg := borgmoea.SurfaceConfig{
			Seed:     *seed,
			Progress: progress,
		}
		if *quick {
			cfg.TFValues = []float64{0.0001, 0.001, 0.01, 0.1, 1}
			cfg.PValues = []int{2, 8, 32, 128, 512, 2048}
		}
		res, err := borgmoea.RunSurface(cfg)
		if err != nil {
			return fail(err)
		}
		if err := borgmoea.WriteSurface(os.Stdout, "(a) Synchronous efficiency (Cantú-Paz analytical model)", res.Sync); err != nil {
			return fail(err)
		}
		fmt.Println()
		if err := borgmoea.WriteSurface(os.Stdout, "(b) Asynchronous efficiency (simulation model)", res.Async); err != nil {
			return fail(err)
		}
		if csvW != nil {
			if err := borgmoea.WriteSurfaceCSV(csvW, res); err != nil {
				return fail(err)
			}
		}
	default:
		return fail(fmt.Errorf("unknown figure %d (want 3, 4 or 5)", *fig))
	}
	return 0
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad TF value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
