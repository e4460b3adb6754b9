package experiment

import (
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// TimingReport is the output of CollectTimings: timed T_A samples of a
// serial run with the maximum-likelihood fits, mirroring the paper's
// Ranger measurement and R fitting workflow (Section IV.B), and the
// least-squares fits that price core.Work.
type TimingReport struct {
	Problem string
	// Summary of the T_A samples.
	Summary stats.Summary
	// Fits are the candidate distributions sorted by log-likelihood.
	Fits []stats.Fit
	// Samples are the raw measurements (seconds), one per bracket.
	Samples []float64
	// Counted is each bracket's T_A at the committed prices
	// (core.Work.Cost): what a virtual-time master charges for it.
	Counted []float64
	// Work fits the samples on the core.Work counts, in workColumns
	// order. Committed fits them on Counted alone: its one coefficient
	// is this host's speed against the calibration host's (1 there),
	// and its R² what the committed prices explain at that speed. Sizes
	// fits them on (1, |A|, |pop|), the archive and population sizes
	// alone.
	Work, Committed, Sizes CostFit
	// DropBlockR2[j] is the Work fit's BlockR2 refitted without count
	// j: a count earns its price when dropping it lowers the BlockR2.
	DropBlockR2 []float64
	// SpikeShare is the share of the total measured T_A carried by
	// brackets over 20× the median.
	SpikeShare float64
}

// CostFit is one linear model of the measured T_A.
type CostFit struct {
	// Coef holds the coefficients in seconds per unit, in the order of
	// the model's columns.
	Coef []float64
	// R2 is the share of the per-bracket variance the model explains;
	// BlockR2 the share of the variance of the means of timingBlock
	// consecutive brackets.
	R2, BlockR2 float64
}

// timingBlock is the bracket count a block mean averages.
const timingBlock = 1000

// workColumns names the core.Work counts in the order a TimingReport's
// Work fit lists them.
var workColumns = []string{"folds", "scanned", "draws", "child_vars", "sampled_vars", "swept_vars"}

func workRow(w core.Work) []float64 {
	return []float64{float64(w.Folds), float64(w.Scanned), float64(w.Draws),
		float64(w.ChildVars), float64(w.SampledVars), float64(w.SweptVars)}
}

// CollectTimings runs the serial Borg MOEA for evaluations and times
// every Accept+Suggest bracket (the asynchronous master's critical
// section) by the wall clock, recording what core.Work counted in it.
// It fits candidate distributions to the times, and the times to the
// counts by least squares: the calibration behind core.Work's prices,
// and the one place a virtual bracket is timed.
func CollectTimings(problem problems.Problem, evaluations uint64, seed uint64) (*TimingReport, error) {
	b, err := core.New(problem, core.Config{
		Epsilons: core.UniformEpsilons(problem.NumObjs(), 0.15),
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	// Every buffer is sized up front: an allocation inside the loop
	// would start the collector, whose pauses land in the brackets.
	// Evaluation leaves the counts alone, so marks[i] and marks[i+1]
	// bound bracket i.
	samples := make([]float64, 0, evaluations)
	sized := make([][2]int, 0, evaluations)
	s := b.Suggest()
	marks := append(make([]core.Work, 0, evaluations+1), b.Work())
	for b.Evaluations() < evaluations {
		core.EvaluateSolution(problem, s)
		sized = append(sized, [2]int{b.Archive().Size(), b.Population().Size()})
		start := time.Now()
		s = b.AcceptSuggest(s)
		samples = append(samples, time.Since(start).Seconds())
		marks = append(marks, b.Work())
	}
	counted := make([]float64, len(samples))
	work := make([][]float64, len(samples))
	sizes := make([][]float64, len(samples))
	for i := range samples {
		counted[i] = marks[i+1].Cost() - marks[i].Cost()
		work[i] = workRow(marks[i+1])
		for j, x := range workRow(marks[i]) {
			work[i][j] -= x
		}
		sizes[i] = []float64{1, float64(sized[i][0]), float64(sized[i][1])}
	}
	rep := &TimingReport{
		Problem:    problem.Name(),
		Samples:    samples,
		Counted:    counted,
		Summary:    stats.Summarize(samples),
		Fits:       stats.FitAll(samples),
		SpikeShare: spikeShare(samples, 20),
	}
	if rep.Work, err = fitCost(work, samples, nil); err != nil {
		return nil, err
	}
	if rep.Sizes, err = fitCost(sizes, samples, nil); err != nil {
		return nil, err
	}
	one := make([][]float64, len(counted))
	for i, c := range counted {
		one[i] = []float64{c}
	}
	if rep.Committed, err = fitCost(one, samples, nil); err != nil {
		return nil, err
	}
	for j := range workColumns {
		rows := make([][]float64, len(work))
		for i, r := range work {
			rows[i] = append(append([]float64(nil), r[:j]...), r[j+1:]...)
		}
		f, err := fitCost(rows, samples, nil)
		if err != nil {
			return nil, err
		}
		rep.DropBlockR2 = append(rep.DropBlockR2, f.BlockR2)
	}
	return rep, nil
}

// fitCost fits y on rows by least squares, or scores coef on them when
// it is set, and reports both R² values.
func fitCost(rows [][]float64, y, coef []float64) (CostFit, error) {
	if coef == nil {
		var err error
		if coef, err = stats.LeastSquares(rows, y); err != nil {
			return CostFit{}, err
		}
	}
	f := CostFit{Coef: coef, R2: stats.RSquared(rows, y, coef)}
	var brows [][]float64
	var by []float64
	for lo := 0; lo+timingBlock <= len(y); lo += timingBlock {
		mean := make([]float64, len(rows[lo]))
		my := 0.0
		for i := lo; i < lo+timingBlock; i++ {
			for j, x := range rows[i] {
				mean[j] += x / timingBlock
			}
			my += y[i] / timingBlock
		}
		brows, by = append(brows, mean), append(by, my)
	}
	if len(by) > 1 {
		f.BlockR2 = stats.RSquared(brows, by, coef)
	}
	return f, nil
}

// spikeShare returns the share of the samples' total carried by those
// above factor× their median.
func spikeShare(xs []float64, factor float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cut := factor * stats.Summarize(xs).Median
	var spike, total float64
	for _, x := range xs {
		total += x
		if x > cut {
			spike += x
		}
	}
	if total == 0 {
		return 0
	}
	return spike / total
}
