// Package experiment is the reproduction harness: it re-runs the
// paper's evaluation — Table II (experiment vs analytical vs
// simulation model), Figures 3–4 (hypervolume-threshold speedup) and
// Figure 5 (synchronous vs asynchronous efficiency surfaces) — on the
// virtual cluster, and renders the same rows and series the paper
// reports. See DESIGN.md §4 for the per-experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package experiment

import (
	"fmt"

	"borgmoea/internal/core"
	"borgmoea/internal/model"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// Table2Config parameterizes the Table II reproduction.
type Table2Config struct {
	// Problems to test. Default: 5-objective DTLZ2 and UF11.
	Problems []problems.Problem
	// TFMeans are the controlled evaluation delays. Default:
	// {0.001, 0.01, 0.1} seconds.
	TFMeans []float64
	// TFCV is the delay coefficient of variation. Default 0.1.
	TFCV float64
	// Processors are the P values. Default {16, 32, ..., 1024}.
	Processors []int
	// Evaluations is N. Default 100000 (the paper's budget,
	// back-derived from Table II).
	Evaluations uint64
	// Replicates per cell (the paper used 50). Default 5.
	Replicates int
	// SimReplicates for the simulation model mean. Default 3.
	SimReplicates int
	// Epsilon is the archive resolution (uniform across the five
	// objectives). Default 0.15 (see normalize for the rationale).
	Epsilon float64
	// Seed seeds the whole experiment.
	Seed uint64
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(string)
}

func (c *Table2Config) normalize() {
	if len(c.Problems) == 0 {
		c.Problems = []problems.Problem{problems.NewDTLZ2(5), problems.NewUF11()}
	}
	if len(c.TFMeans) == 0 {
		c.TFMeans = []float64{0.001, 0.01, 0.1}
	}
	if c.TFCV == 0 {
		c.TFCV = 0.1
	}
	if len(c.Processors) == 0 {
		c.Processors = []int{16, 32, 64, 128, 256, 512, 1024}
	}
	if c.Evaluations == 0 {
		c.Evaluations = 100000
	}
	if c.Replicates == 0 {
		c.Replicates = 5
	}
	if c.SimReplicates == 0 {
		c.SimReplicates = 3
	}
	if c.Epsilon == 0 {
		// ε = 0.15 keeps 5-objective archives at the size implied by
		// the paper's measured T_A values (DTLZ2 a few hundred
		// members with T_A ≈ tens of µs, UF11 larger and costlier),
		// reproducing the T_A(UF11) > T_A(DTLZ2) ordering of
		// Table II.
		c.Epsilon = 0.15
	}
}

// Table2Cell is one row of the reproduced Table II.
type Table2Cell struct {
	Problem string
	P       int
	// Observed mean timings (seconds).
	TA, TC, TF float64
	// Experimental results.
	Time       float64
	Efficiency float64
	// Analytical model (Eq. 2) prediction and Eq. 5 relative error.
	AnalyticalTime  float64
	AnalyticalError float64
	// Simulation model prediction and error.
	SimulationTime  float64
	SimulationError float64
	// FittedTA names the distribution family selected for T_A by
	// log-likelihood (the paper's R workflow).
	FittedTA string
}

// RunTable2 executes the Table II experiment and returns one cell per
// (problem, T_F, P) combination, in the paper's row order.
func RunTable2(cfg Table2Config) ([]Table2Cell, error) {
	cfg.normalize()
	var cells []Table2Cell
	seed := cfg.Seed
	for _, prob := range cfg.Problems {
		for _, tfMean := range cfg.TFMeans {
			for _, p := range cfg.Processors {
				cell, err := runTable2Cell(&cfg, prob, tfMean, p, seed)
				if err != nil {
					return nil, fmt.Errorf("cell %s TF=%g P=%d: %w", prob.Name(), tfMean, p, err)
				}
				cells = append(cells, cell)
				seed += 10007
				if cfg.Progress != nil {
					cfg.Progress(fmt.Sprintf("%-8s TF=%-6g P=%-5d time=%8.2fs eff=%.2f errA=%3.0f%% errS=%3.0f%%",
						cell.Problem, tfMean, p, cell.Time, cell.Efficiency,
						100*cell.AnalyticalError, 100*cell.SimulationError))
				}
			}
		}
	}
	return cells, nil
}

func runTable2Cell(cfg *Table2Config, prob problems.Problem, tfMean float64, p int, seed uint64) (Table2Cell, error) {
	tf := stats.GammaFromMeanCV(tfMean, cfg.TFCV)
	var (
		sumTime, sumTA, sumTF, sumTC float64
		taSamples                    []float64
	)
	for r := 0; r < cfg.Replicates; r++ {
		pc := parallel.Config{
			Problem: prob,
			Algorithm: core.Config{
				Epsilons: core.UniformEpsilons(prob.NumObjs(), cfg.Epsilon),
			},
			Processors:     p,
			Evaluations:    cfg.Evaluations,
			TF:             tf,
			Seed:           seed + uint64(r)*7919,
			CaptureTimings: r == 0, // fit distributions from the first replicate
		}
		res, err := parallel.RunAsync(pc)
		if err != nil {
			return Table2Cell{}, err
		}
		sumTime += res.ElapsedTime
		sumTA += res.MeanTA
		sumTF += res.MeanTF
		sumTC += res.MeanTC
		if r == 0 {
			taSamples = res.TASamples
		}
	}
	n := float64(cfg.Replicates)
	cell := Table2Cell{
		Problem: prob.Name(),
		P:       p,
		TA:      sumTA / n,
		TF:      sumTF / n,
		TC:      sumTC / n,
		Time:    sumTime / n,
	}
	times := model.Times{TF: cell.TF, TA: cell.TA, TC: cell.TC}
	ts := model.SerialTime(cfg.Evaluations, times)
	cell.Efficiency = ts / (float64(p) * cell.Time)

	cell.AnalyticalTime = model.AsyncTime(cfg.Evaluations, p, times)
	cell.AnalyticalError = model.RelativeError(cell.Time, cell.AnalyticalTime)

	// Simulation model with the fitted T_A distribution (falling back
	// to the observed mean when fitting is impossible).
	taDist := fitOrConstant(taSamples, cell.TA)
	cell.FittedTA = taDist.Name()
	simTime, err := model.SimulateMean(model.SimConfig{
		Processors:  p,
		Evaluations: cfg.Evaluations,
		TF:          tf,
		TA:          taDist,
		TC:          stats.NewConstant(cell.TC),
		Seed:        seed ^ 0x5349,
	}, cfg.SimReplicates)
	if err != nil {
		return Table2Cell{}, err
	}
	cell.SimulationTime = simTime
	cell.SimulationError = model.RelativeError(cell.Time, simTime)
	return cell, nil
}

// fitOrConstant selects the best-fit distribution for the samples by
// log-likelihood, or a constant at the fallback mean when the sample
// is unusable.
func fitOrConstant(samples []float64, fallbackMean float64) stats.Distribution {
	if len(samples) >= 10 {
		if fit, err := stats.SelectBest(samples); err == nil {
			return fit.Dist
		}
	}
	return stats.NewConstant(fallbackMean)
}
