package experiment

import (
	"fmt"
	"math"

	"borgmoea/internal/core"
	"borgmoea/internal/metrics"
	"borgmoea/internal/obs"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// SpeedupConfig parameterizes the Figure 3/4 reproduction:
// hypervolume-threshold speedup S_P^h = T_S^h / T_P^h for thresholds
// h ∈ [0.1, 1.0], one panel per (problem, T_F).
type SpeedupConfig struct {
	// Problem under test (DTLZ2_5 for Fig. 3, UF11 for Fig. 4).
	Problem problems.Problem
	// TFMean is the controlled delay mean; TFCV its coefficient of
	// variation (default 0.1).
	TFMean float64
	TFCV   float64
	// Processors are the series (default {16, ..., 1024}).
	Processors []int
	// Evaluations is N (default 100000).
	Evaluations uint64
	// Replicates per configuration (default 3; the paper used 50).
	Replicates int
	// Thresholds are the fractions of the attainable hypervolume
	// (default 0.1, 0.2, ..., 1.0). "Attainable" is the minimum
	// final hypervolume across all configurations including serial,
	// so every series is defined at every threshold (see
	// EXPERIMENTS.md for the normalization discussion).
	Thresholds []float64
	// CheckpointEvery is the hypervolume sampler's cadence in
	// evaluations (default N/100).
	CheckpointEvery uint64
	// HVSamples is the Monte-Carlo sample count per hypervolume
	// estimate of a front too large for the exact computation
	// (default 20000).
	HVSamples int
	// RefPointScale places the hypervolume reference point at this
	// value in every objective (default metrics.DefaultRefScale).
	RefPointScale float64
	// Epsilon is the archive resolution (default 0.15, matching the
	// Table II experiments).
	Epsilon float64
	// Seed seeds the experiment.
	Seed uint64
	// Progress, when non-nil, receives one line per configuration.
	Progress func(string)
}

func (c *SpeedupConfig) normalize() error {
	if c.Problem == nil {
		return fmt.Errorf("experiment: SpeedupConfig.Problem required")
	}
	if c.TFMean <= 0 {
		return fmt.Errorf("experiment: TFMean must be positive")
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
		c.Replicates = 3
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = c.Evaluations / 100
		if c.CheckpointEvery == 0 {
			c.CheckpointEvery = 1
		}
	}
	if c.HVSamples == 0 {
		c.HVSamples = 20000
	}
	if c.RefPointScale == 0 {
		c.RefPointScale = metrics.DefaultRefScale
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.15 // matches the Table II resolution
	}
	return nil
}

// trajectory is one run's hypervolume-over-virtual-time curve.
type trajectory struct {
	times []float64 // virtual seconds at each sample
	hv    []float64 // hypervolume at each sample
}

// timeToThreshold returns the earliest sample time at which hv >=
// h, or NaN if never reached.
func (tr trajectory) timeToThreshold(h float64) float64 {
	for i, v := range tr.hv {
		if v >= h {
			return tr.times[i]
		}
	}
	return math.NaN()
}

// finalHV returns the last sample's hypervolume (0 if empty).
func (tr trajectory) finalHV() float64 {
	if len(tr.hv) == 0 {
		return 0
	}
	return tr.hv[len(tr.hv)-1]
}

// newSampler returns one run's hypervolume timeline: a quality sampler
// on the panel's cadence at reference point ref, exact WFG for small
// fronts and cfg.HVSamples Monte Carlo samples beyond. Sample i sits
// at the same evaluation count in every run and draws its Monte Carlo
// points from the same per-sequence seed, so the estimates are common
// random numbers across configurations.
func (c *SpeedupConfig) newSampler(ref []float64) *obs.QualitySampler {
	return obs.NewQualitySampler(obs.QualityConfig{Every: c.CheckpointEvery, Ref: ref, MCSamples: c.HVSamples})
}

// timeline reads a run's trajectory off its sampler.
func timeline(q *obs.QualitySampler) trajectory {
	var tr trajectory
	for _, s := range q.Log().Samples {
		tr.times = append(tr.times, s.At)
		tr.hv = append(tr.hv, s.Hypervolume)
	}
	return tr
}

// SpeedupSeries is one line of a Figure 3/4 panel.
type SpeedupSeries struct {
	P       int
	Speedup []float64 // aligned with SpeedupResult.Thresholds
}

// SpeedupResult is one (problem, T_F) panel.
type SpeedupResult struct {
	Problem    string
	TFMean     float64
	Thresholds []float64 // absolute hypervolume values used
	// ThresholdFractions are the configured fractions of the
	// attainable hypervolume.
	ThresholdFractions []float64
	// AttainableHV is the min-across-configurations final
	// hypervolume that defines the h=1.0 threshold.
	AttainableHV float64
	Series       []SpeedupSeries
	// SerialTimeToThreshold are the serial T_S^h values.
	SerialTimeToThreshold []float64
}

// RunSpeedup reproduces one panel of Figure 3 (DTLZ2) or Figure 4
// (UF11).
func RunSpeedup(cfg SpeedupConfig) (*SpeedupResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m := cfg.Problem.NumObjs()
	ref := metrics.RefPoint(m, cfg.RefPointScale)

	// Serial baseline trajectories.
	serial := make([]trajectory, cfg.Replicates)
	for r := range serial {
		serial[r] = runSerialTrajectory(&cfg, ref, cfg.Seed+uint64(r)*104729)
	}
	if cfg.Progress != nil {
		cfg.Progress(fmt.Sprintf("%s TF=%g serial baseline done (final HV %.4f)",
			cfg.Problem.Name(), cfg.TFMean, meanFinalHV(serial)))
	}

	// Parallel trajectories per P.
	parTraj := make(map[int][]trajectory, len(cfg.Processors))
	for _, p := range cfg.Processors {
		trs := make([]trajectory, cfg.Replicates)
		for r := range trs {
			tr, err := runParallelTrajectory(&cfg, ref, p, cfg.Seed+uint64(p)*31+uint64(r)*104729)
			if err != nil {
				return nil, err
			}
			trs[r] = tr
		}
		parTraj[p] = trs
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("%s TF=%g P=%d done (final HV %.4f)",
				cfg.Problem.Name(), cfg.TFMean, p, meanFinalHV(trs)))
		}
	}

	// The attainable hypervolume: minimum final HV across every
	// configuration, so the h=1.0 threshold is reached by all.
	attainable := math.Inf(1)
	for _, tr := range serial {
		attainable = math.Min(attainable, tr.finalHV())
	}
	for _, trs := range parTraj {
		for _, tr := range trs {
			attainable = math.Min(attainable, tr.finalHV())
		}
	}

	res := &SpeedupResult{
		Problem:            cfg.Problem.Name(),
		TFMean:             cfg.TFMean,
		ThresholdFractions: cfg.Thresholds,
		AttainableHV:       attainable,
	}
	res.Thresholds = make([]float64, len(cfg.Thresholds))
	for i, f := range cfg.Thresholds {
		res.Thresholds[i] = f * attainable
	}
	res.SerialTimeToThreshold = meanTimesToThresholds(serial, res.Thresholds)
	for _, p := range cfg.Processors {
		pt := meanTimesToThresholds(parTraj[p], res.Thresholds)
		sp := make([]float64, len(res.Thresholds))
		for i := range sp {
			if pt[i] > 0 && !math.IsNaN(pt[i]) && !math.IsNaN(res.SerialTimeToThreshold[i]) {
				sp[i] = res.SerialTimeToThreshold[i] / pt[i]
			} else {
				sp[i] = math.NaN()
			}
		}
		res.Series = append(res.Series, SpeedupSeries{P: p, Speedup: sp})
	}
	return res, nil
}

func meanFinalHV(trs []trajectory) float64 {
	s := 0.0
	for _, tr := range trs {
		s += tr.finalHV()
	}
	return s / float64(len(trs))
}

// meanTimesToThresholds averages time-to-threshold across replicates
// (NaN if any replicate never reaches the threshold).
func meanTimesToThresholds(trs []trajectory, thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	for i, h := range thresholds {
		sum := 0.0
		for _, tr := range trs {
			t := tr.timeToThreshold(h)
			if math.IsNaN(t) {
				sum = math.NaN()
				break
			}
			sum += t
		}
		out[i] = sum / float64(len(trs))
	}
	return out
}

// runSerialTrajectory runs the serial Borg MOEA, mapping evaluation
// counts to virtual serial time N·T_F plus the core's counted cost
// (core.Work), the T_A the parallel runs charge their master. It
// samples where the virtual master does: the first accept, then every
// CheckpointEvery, never the final accept.
func runSerialTrajectory(cfg *SpeedupConfig, ref []float64, seed uint64) trajectory {
	b := core.MustNew(cfg.Problem, core.Config{
		Epsilons: core.UniformEpsilons(cfg.Problem.NumObjs(), cfg.Epsilon),
		Seed:     seed,
	})
	q := cfg.newSampler(ref)
	q.Attach(b)
	for b.Evaluations() < cfg.Evaluations {
		b.Step()
		n := b.Evaluations()
		if at := float64(n)*cfg.TFMean + b.Cost(); n < cfg.Evaluations && q.Due(n, at) {
			q.Sample(q.NextSeq(), at)
		}
	}
	return timeline(q)
}

func runParallelTrajectory(cfg *SpeedupConfig, ref []float64, p int, seed uint64) (trajectory, error) {
	q := cfg.newSampler(ref)
	pc := parallel.Config{
		Problem: cfg.Problem,
		Algorithm: core.Config{
			Epsilons: core.UniformEpsilons(cfg.Problem.NumObjs(), cfg.Epsilon),
		},
		Processors:  p,
		Evaluations: cfg.Evaluations,
		TF:          stats.GammaFromMeanCV(cfg.TFMean, cfg.TFCV),
		Seed:        seed,
		Quality:     q,
	}
	if _, err := parallel.RunAsync(pc); err != nil {
		return trajectory{}, err
	}
	return timeline(q), nil
}
