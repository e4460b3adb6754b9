package advisor

import (
	"testing"

	"borgmoea/internal/obs"
)

// newQualityAdvisor returns an advisor that mirrors its quality states
// onto reg's gauges.
func newQualityAdvisor(reg *obs.Registry) *Advisor {
	return New(Config{Registry: reg})
}

// TestQualityStallDetector: the stall state must raise when ε-progress
// dries up relative to the run's own peak rate, on the report and on
// its gauge, and the scaling report must carry the search-health
// section.
func TestQualityStallDetector(t *testing.T) {
	reg := obs.NewRegistry()
	adv := newQualityAdvisor(reg)
	// Healthy phase: brisk, steady ε-progress.
	for i := 0; i < 10; i++ {
		adv.ObserveQuality(obs.QualitySample{
			Seq: uint64(i), At: float64(i), EpsProgress: uint64(100 * i), Hypervolume: 0.5,
		})
	}
	if r := adv.Report(); r.Quality == nil || r.Quality.Stalled {
		t.Fatalf("healthy phase misreported: %+v", r.Quality)
	}
	if g := reg.Gauge(MetricQualityStalled).Value(); g != 0 {
		t.Fatalf("%s = %v in the healthy phase, want 0", MetricQualityStalled, g)
	}
	// Stalled phase: no new ε-boxes for a long stretch.
	for i := 10; i < 40; i++ {
		adv.ObserveQuality(obs.QualitySample{
			Seq: uint64(i), At: float64(i), EpsProgress: 1000, Hypervolume: 0.5,
		})
	}
	r := adv.Report()
	if r.Quality == nil || !r.Quality.Stalled {
		t.Fatalf("stall not detected: %+v", r.Quality)
	}
	if g := reg.Gauge(MetricQualityStalled).Value(); g != 1 {
		t.Fatalf("%s = %v after the stall, want 1", MetricQualityStalled, g)
	}
	if r.Quality.EpsRatePeak <= 0 || r.Quality.EpsRateSmoothed >= r.Quality.EpsRatePeak {
		t.Errorf("rate bookkeeping wrong: smoothed %v, peak %v", r.Quality.EpsRateSmoothed, r.Quality.EpsRatePeak)
	}
}

// TestQualityRestartRegression: a restart that fails to win back its
// pre-restart hypervolume must raise the regression state, on the
// report and on its gauge; recovery must clear both and settle the
// episode.
func TestQualityRestartRegression(t *testing.T) {
	reg := obs.NewRegistry()
	adv := newQualityAdvisor(reg)
	for i := 0; i < 8; i++ {
		adv.ObserveQuality(obs.QualitySample{
			Seq: uint64(i), At: float64(i), EpsProgress: uint64(10 * i), Hypervolume: 0.8,
		})
	}
	// Restart ran between samples; hypervolume collapsed.
	adv.ObserveQuality(obs.QualitySample{Seq: 8, At: 8, EpsProgress: 90, Hypervolume: 0.4, Restarts: 1})
	r := adv.Report()
	if r.Quality == nil || !r.Quality.Regressed {
		t.Fatalf("regression not detected: %+v", r.Quality)
	}
	if r.Quality.PreRestartHypervolume != 0.8 {
		t.Errorf("pre-restart hypervolume %v, want 0.8", r.Quality.PreRestartHypervolume)
	}
	if g := reg.Gauge(MetricQualityRegressed).Value(); g != 1 {
		t.Fatalf("%s = %v after the collapse, want 1", MetricQualityRegressed, g)
	}
	// Recovery past the pre-restart level clears the flag and settles
	// the episode.
	adv.ObserveQuality(obs.QualitySample{Seq: 9, At: 9, EpsProgress: 100, Hypervolume: 0.85, Restarts: 1})
	if r := adv.Report(); r.Quality.Regressed {
		t.Fatal("regression flag not cleared after recovery")
	}
	if g := reg.Gauge(MetricQualityRegressed).Value(); g != 0 {
		t.Fatalf("%s = %v after recovery, want 0", MetricQualityRegressed, g)
	}
}

// TestQualityAlertsEdgeTriggered: a stall rises once and then holds
// while progress stays flat; it does not flicker off and on from
// sample to sample.
func TestQualityAlertsEdgeTriggered(t *testing.T) {
	adv := newQualityAdvisor(nil)
	rises, stalled := 0, false
	observe := func(q obs.QualitySample) {
		adv.ObserveQuality(q)
		now := adv.Report().Quality.Stalled
		if now && !stalled {
			rises++
		}
		stalled = now
	}
	for i := 0; i < 10; i++ {
		observe(obs.QualitySample{At: float64(i), EpsProgress: uint64(100 * i)})
	}
	for i := 10; i < 60; i++ {
		observe(obs.QualitySample{At: float64(i), EpsProgress: 1000})
	}
	if rises != 1 || !stalled {
		t.Fatalf("stall rose %d times and ends stalled=%v, want one rise that holds", rises, stalled)
	}
}

// TestQualityNilAdvisor: feeding samples to a nil advisor is a no-op.
func TestQualityNilAdvisor(t *testing.T) {
	var adv *Advisor
	adv.ObserveQuality(obs.QualitySample{EpsProgress: 1})
	if r := adv.Report(); r.Quality != nil {
		t.Fatal("nil advisor reported quality health")
	}
}
