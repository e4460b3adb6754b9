package advisor

import (
	"borgmoea/internal/obs"
)

// The quality health detector: where the rest of the advisor fits the
// paper's timing model, this part watches the search itself via the
// obs.QualitySampler feed (wire ObserveQuality to
// QualityConfig.OnSample). Two alerts, next to the drift and straggler
// alerts:
//
//   - "search stalled": the smoothed ε-progress rate has collapsed to
//     a small fraction of its own peak. The threshold is
//     self-normalizing — rates depend on problem, cadence and clock,
//     so the run's own best rate is the only meaningful yardstick.
//   - "quality regressed after restart": an adaptive restart ran and
//     the hypervolume is still below its pre-restart level (beyond
//     tolerance). Restarts trade short-term quality for diversity;
//     this flags the ones that have not paid off yet.

// Quality-health thresholds.
const (
	// DefaultStallFraction: stalled when the smoothed ε-progress rate
	// drops below this fraction of its peak.
	DefaultStallFraction = 0.1
	// DefaultQualityWarmup is how many quality samples must arrive
	// before either alert can fire.
	DefaultQualityWarmup = 5
	// DefaultRegressionTolerance is the relative hypervolume shortfall
	// vs the pre-restart level that counts as a regression.
	DefaultRegressionTolerance = 0.02
	// qualityRateAlpha smooths the per-sample ε-progress rate.
	qualityRateAlpha = 0.3
)

// Gauge names the quality detector registers on Config.Registry.
const (
	MetricQualityStalled   = "advisor.quality_stalled"
	MetricQualityRegressed = "advisor.quality_regressed"
	MetricEpsRateSmoothed  = "advisor.eps_progress_rate_smoothed"
)

// QualityHealth is the search-health section of a Report, present
// once at least one quality sample has been observed.
type QualityHealth struct {
	// Samples counts quality samples observed.
	Samples uint64 `json:"samples"`
	// Hypervolume and EpsProgress echo the latest sample.
	Hypervolume float64 `json:"hypervolume"`
	EpsProgress uint64  `json:"eps_progress"`
	// EpsRateSmoothed is the EWMA ε-progress rate (boxes per
	// driver-second); EpsRatePeak its run maximum.
	EpsRateSmoothed float64 `json:"eps_rate_smoothed"`
	EpsRatePeak     float64 `json:"eps_rate_peak"`
	// Restarts echoes the cumulative restart count;
	// PreRestartHypervolume is the level just before the latest one.
	Restarts              uint64  `json:"restarts"`
	PreRestartHypervolume float64 `json:"pre_restart_hypervolume,omitempty"`
	// Stalled: ε-progress has collapsed relative to the run's own
	// peak rate. Regressed: hypervolume has not recovered its
	// pre-restart level.
	Stalled   bool `json:"stalled"`
	Regressed bool `json:"regressed"`
}

// qualityState is the advisor's stall/regression tracking, guarded by
// the advisor mutex like everything else.
type qualityState struct {
	samples  uint64
	last     obs.QualitySample
	rate     *EWMA
	peakRate float64

	restartSeen bool
	preHV       float64 // hypervolume just before the latest restart

	stalled   bool
	regressed bool

	gStalled, gRegressed, gRate *obs.Gauge
}

// ObserveQuality feeds one quality sample into the stall/regression
// detector — wire it to obs.QualityConfig.OnSample. Nil-safe. The
// stalled and regressed states are read off Report().Quality and the
// MetricQualityStalled and MetricQualityRegressed gauges.
func (a *Advisor) ObserveQuality(q obs.QualitySample) {
	if a == nil {
		return
	}
	a.mu.Lock()
	s := &a.quality
	if s.rate == nil {
		s.rate = NewEWMA(qualityRateAlpha)
		s.gStalled = a.cfg.Registry.Gauge(MetricQualityStalled)
		s.gRegressed = a.cfg.Registry.Gauge(MetricQualityRegressed)
		s.gRate = a.cfg.Registry.Gauge(MetricEpsRateSmoothed)
	}
	if s.samples > 0 {
		if dt := q.At - s.last.At; dt > 0 {
			s.rate.Observe(float64(q.EpsProgress-s.last.EpsProgress) / dt)
			if v := s.rate.Value(); v > s.peakRate {
				s.peakRate = v
			}
		}
		if q.Restarts > s.last.Restarts {
			// A restart ran since the previous sample: remember the
			// level it has to win back.
			s.restartSeen = true
			s.preHV = s.last.Hypervolume
		}
	}
	s.samples++
	s.last = q

	warm := s.samples >= DefaultQualityWarmup
	s.stalled = warm && s.peakRate > 0 &&
		s.rate.Value() < DefaultStallFraction*s.peakRate
	s.regressed = warm && s.restartSeen &&
		q.Hypervolume < s.preHV*(1-DefaultRegressionTolerance)
	if s.regressed {
		// Still underwater; keep watching.
	} else if s.restartSeen && q.Hypervolume >= s.preHV {
		// Fully recovered: this restart episode is settled.
		s.restartSeen = false
	}

	s.gRate.Set(sanitize(s.rate.Value()))
	s.gStalled.Set(b2f(s.stalled))
	s.gRegressed.Set(b2f(s.regressed))
	a.mu.Unlock()
}

// qualityReport assembles the Report section; callers hold a.mu.
func (a *Advisor) qualityReport() *QualityHealth {
	s := &a.quality
	if s.samples == 0 {
		return nil
	}
	return &QualityHealth{
		Samples:               s.samples,
		Hypervolume:           sanitize(s.last.Hypervolume),
		EpsProgress:           s.last.EpsProgress,
		EpsRateSmoothed:       sanitize(s.rate.Value()),
		EpsRatePeak:           sanitize(s.peakRate),
		Restarts:              s.last.Restarts,
		PreRestartHypervolume: sanitize(s.preHV),
		Stalled:               s.stalled,
		Regressed:             s.regressed,
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
