package experiment

import (
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// wallTimer accumulates wall-clock time across start/pause intervals,
// used to derive a mean per-evaluation T_A for the serial baseline.
// It deliberately measures elapsed wall time, not CPU time: the serial
// baseline runs single-threaded and undisturbed, where the two agree,
// and wall time is what the paper's T_P/T_S comparisons are built on.
type wallTimer struct {
	total   time.Duration
	started time.Time
	running bool
}

func newWallTimer() *wallTimer { return &wallTimer{} }

func (t *wallTimer) start() {
	t.started = time.Now()
	t.running = true
}

func (t *wallTimer) pause() {
	if t.running {
		t.total += time.Since(t.started)
		t.running = false
	}
}

// meanPer returns total accumulated seconds divided by n.
func (t *wallTimer) meanPer(n uint64) float64 {
	if n == 0 {
		return 0
	}
	return t.total.Seconds() / float64(n)
}

// TimingReport is the output of CollectTimings: measured T_A samples
// from an instrumented run and the maximum-likelihood fits, mirroring
// the paper's Ranger measurement + R fitting workflow (Section IV.B).
type TimingReport struct {
	Problem string
	// Summary of the T_A samples.
	Summary stats.Summary
	// Fits are the candidate distributions sorted by log-likelihood.
	Fits []stats.Fit
	// Samples are the raw measurements (seconds).
	Samples []float64
}

// CollectTimings runs an instrumented asynchronous run (measured T_A)
// and fits candidate distributions to the observed master algorithm
// times. evaluations controls the sample count (one T_A sample per
// evaluation).
func CollectTimings(problem problems.Problem, evaluations uint64, seed uint64) (*TimingReport, error) {
	res, err := parallel.RunAsync(parallel.Config{
		Problem: problem,
		Algorithm: core.Config{
			Epsilons: core.UniformEpsilons(problem.NumObjs(), 0.15),
		},
		Processors:     8,
		Evaluations:    evaluations,
		TF:             stats.GammaFromMeanCV(0.001, 0.1),
		Seed:           seed,
		CaptureTimings: true,
	})
	if err != nil {
		return nil, err
	}
	report := &TimingReport{
		Problem: problem.Name(),
		Samples: res.TASamples,
		Summary: stats.Summarize(res.TASamples),
		Fits:    stats.FitAll(res.TASamples),
	}
	return report, nil
}
