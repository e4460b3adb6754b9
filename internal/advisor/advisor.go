// Package advisor is the live scalability advisor: it streams the
// telemetry the drivers already emit (T_A, T_F, T_C, queue waits,
// heartbeat RTTs) through constant-memory estimators and continuously
// places the running system on the paper's analytical model — fitted
// model.Times, predicted vs observed asynchronous speedup and
// efficiency (Eqs. 2–3), the processor bounds (Eqs. 3–4), master
// utilization and saturation — plus a model-drift score and a
// per-worker straggler detector built on exponentially-decayed T_F.
//
// The advisor is strictly an observer: drivers feed it measurements
// and acceptance events, and nothing it computes flows back into the
// optimization. All methods are nil-safe (a nil *Advisor no-ops), so
// drivers wire it with the same zero-cost-when-absent convention as
// obs.Registry.
//
// Three consumers share one Advisor: the /debug/scaling HTTP endpoint
// (Handler), periodic JSONL snapshots (Config.OnSnapshot, driven by
// the driver's own clock so DES runs snapshot in virtual time), and
// borgview top, which renders either of the first two.
package advisor

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"sync"

	"borgmoea/internal/model"
	"borgmoea/internal/obs"
)

// Defaults for the zero Config value.
const (
	DefaultDriftThreshold  = 0.25
	DefaultStragglerFactor = 3.0
	DefaultMinSamples      = 5
	DefaultWarmupEvals     = 100
	DefaultAlpha           = 0.05
	driftAlpha             = 0.3 // smoothing of the per-snapshot drift
)

// Config tunes an Advisor. The zero value works: drivers fill
// Processors and Budget via Configure, and every threshold has a
// default.
type Config struct {
	// Processors is the total processor count P (master + workers).
	// 0 means "infer from live workers" (SetLive), which is how the
	// distributed driver runs — its pool size is whatever daemons
	// happen to have joined.
	Processors int
	// Budget is the total evaluation budget N, used for the time-
	// remaining estimate. 0 disables the estimate.
	Budget uint64
	// SnapshotEvery is the interval between OnSnapshot callbacks in
	// seconds of the driver's clock — virtual seconds under DES, wall
	// seconds in the realtime and distributed drivers. <= 0 disables
	// periodic snapshots.
	SnapshotEvery float64
	// OnSnapshot, when set, receives a Report every SnapshotEvery
	// driver-clock seconds (evaluated at acceptance events, so an idle
	// system does not snapshot). Called without the advisor's lock.
	OnSnapshot func(Report)
	// DriftThreshold is the smoothed relative error between observed
	// and predicted speedup above which the report raises DriftAlert
	// (default 0.25: the analytical model is off by more than a
	// quarter — past the paper's Table II error at saturation, so
	// something the model does not capture is happening).
	DriftThreshold float64
	// StragglerFactor flags a worker whose decayed T_F is at least
	// this multiple of the fleet median (default 3).
	StragglerFactor float64
	// MinSamples is how many evaluations a worker needs before it
	// participates in straggler detection (default 5).
	MinSamples uint64
	// WarmupEvals suppresses the drift alert until this many results
	// have been accepted (default 100) — the first estimates are too
	// noisy to act on.
	WarmupEvals uint64
	// Alpha is the decay factor of the per-worker T_F average
	// (default 0.05 — roughly the last 20 evaluations dominate).
	Alpha float64
	// Registry, when set, receives the headline figures as gauges
	// (advisor.predicted_speedup, advisor.drift_score, …) so they ride
	// along in /debug/vars, -metrics-out and the Prometheus endpoint.
	Registry *obs.Registry
	// OnStraggler, when set, is called once per worker the first time
	// the straggler detector flags it — from Report or a periodic
	// snapshot, outside the advisor's lock. The tracing layer wires it
	// to obs.Collector.ForceWorker so a struggling worker's
	// evaluations are traced regardless of the sampling rate.
	OnStraggler func(worker int)
	// StallFraction: the search counts as stalled when the smoothed
	// ε-progress rate falls below this fraction of its own run peak
	// (default DefaultStallFraction). Needs ObserveQuality feeding.
	StallFraction float64
	// QualityWarmup suppresses quality alerts until this many quality
	// samples have arrived (default DefaultQualityWarmup).
	QualityWarmup int
	// RegressionTolerance is the relative hypervolume shortfall vs
	// the pre-restart level that counts as "quality regressed after
	// restart" (default DefaultRegressionTolerance).
	RegressionTolerance float64
	// OnQualityAlert, when set, is called on each rising edge of a
	// quality alert with a short description ("search stalled",
	// "quality regressed after restart"), outside the advisor's lock.
	OnQualityAlert func(alert string)
}

func (c *Config) fillDefaults() {
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = DefaultDriftThreshold
	}
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = DefaultStragglerFactor
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.WarmupEvals == 0 {
		c.WarmupEvals = DefaultWarmupEvals
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultAlpha
	}
	if c.StallFraction <= 0 {
		c.StallFraction = DefaultStallFraction
	}
	if c.QualityWarmup <= 0 {
		c.QualityWarmup = DefaultQualityWarmup
	}
	if c.RegressionTolerance <= 0 {
		c.RegressionTolerance = DefaultRegressionTolerance
	}
}

// gauges is the registry mirror of the report's headline figures.
type gauges struct {
	predSpeedup, obsSpeedup *obs.Gauge
	predEff, obsEff         *obs.Gauge
	drift, stragglers       *obs.Gauge
	pUB, pLB                *obs.Gauge
	effective, utilization  *obs.Gauge
}

// Gauge names the advisor registers on Config.Registry.
const (
	MetricPredictedSpeedup    = "advisor.predicted_speedup"
	MetricObservedSpeedup     = "advisor.observed_speedup"
	MetricPredictedEfficiency = "advisor.predicted_efficiency"
	MetricObservedEfficiency  = "advisor.observed_efficiency"
	MetricDriftScore          = "advisor.drift_score"
	MetricStragglers          = "advisor.stragglers"
	MetricProcessorUB         = "advisor.processor_upper_bound"
	MetricProcessorLB         = "advisor.processor_lower_bound"
	MetricEffectiveProcessors = "advisor.effective_processors"
	MetricMasterUtilization   = "advisor.master_utilization"
)

func newGauges(reg *obs.Registry) gauges {
	return gauges{
		predSpeedup: reg.Gauge(MetricPredictedSpeedup),
		obsSpeedup:  reg.Gauge(MetricObservedSpeedup),
		predEff:     reg.Gauge(MetricPredictedEfficiency),
		obsEff:      reg.Gauge(MetricObservedEfficiency),
		drift:       reg.Gauge(MetricDriftScore),
		stragglers:  reg.Gauge(MetricStragglers),
		pUB:         reg.Gauge(MetricProcessorUB),
		pLB:         reg.Gauge(MetricProcessorLB),
		effective:   reg.Gauge(MetricEffectiveProcessors),
		utilization: reg.Gauge(MetricMasterUtilization),
	}
}

// workerStat is one worker's decayed evaluation-time state.
type workerStat struct {
	tf *obs.EWMA
}

// Advisor is the online analysis state. Create with New; the zero
// value is not usable, but a nil *Advisor safely no-ops everywhere, so
// `var adv *advisor.Advisor` is the disabled configuration.
type Advisor struct {
	mu  sync.Mutex
	cfg Config
	g   gauges

	ta, tc, rtt, queue obs.Welford
	tf                 obs.Welford
	tfP50, tfP90       *obs.P2Quantile
	tfP99              *obs.P2Quantile

	workers map[int]*workerStat
	flagged map[int]bool // workers OnStraggler already fired for
	live    int

	completed uint64
	elapsed   float64 // driver-clock time of the latest acceptance
	busy      float64 // master busy time: Σ T_A + Σ T_C observed

	drift    *obs.EWMA // smoothed per-snapshot model drift
	lastSnap float64

	// quality is the search-health detector state (quality.go).
	quality qualityState
}

// New returns an advisor with defaults filled in.
func New(cfg Config) *Advisor {
	cfg.fillDefaults()
	return &Advisor{
		cfg:     cfg,
		g:       newGauges(cfg.Registry),
		tfP50:   obs.NewP2Quantile(0.50),
		tfP90:   obs.NewP2Quantile(0.90),
		tfP99:   obs.NewP2Quantile(0.99),
		workers: make(map[int]*workerStat),
		flagged: make(map[int]bool),
		drift:   obs.NewEWMA(driftAlpha),
	}
}

// Configure fills Processors and Budget if the construction-time
// Config left them unset — how drivers hand their own parameters to a
// user-supplied advisor without clobbering explicit choices. Nil-safe.
func (a *Advisor) Configure(processors int, budget uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.Processors == 0 {
		a.cfg.Processors = processors
	}
	if a.cfg.Budget == 0 {
		a.cfg.Budget = budget
	}
}

// ObserveTA records one master algorithm time T_A in seconds.
func (a *Advisor) ObserveTA(sec float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ta.Observe(sec)
	a.busy += sec
	a.mu.Unlock()
}

// ObserveTC records one one-way communication time T_C in seconds.
func (a *Advisor) ObserveTC(sec float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tc.Observe(sec)
	a.busy += sec
	a.mu.Unlock()
}

// ObserveTF records one function evaluation time T_F in seconds,
// attributed to the given worker (1-based driver worker id).
func (a *Advisor) ObserveTF(worker int, sec float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tf.Observe(sec)
	a.tfP50.Observe(sec)
	a.tfP90.Observe(sec)
	a.tfP99.Observe(sec)
	ws := a.workers[worker]
	if ws == nil {
		ws = &workerStat{tf: obs.NewEWMA(a.cfg.Alpha)}
		a.workers[worker] = ws
	}
	ws.tf.Observe(sec)
	a.mu.Unlock()
}

// ObserveQueueWait records one master queue wait in seconds.
func (a *Advisor) ObserveQueueWait(sec float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.queue.Observe(sec)
	a.mu.Unlock()
}

// ObserveRTT records one heartbeat round-trip time in seconds. When no
// direct T_C measurements exist (the distributed driver cannot see
// one-way latency), the fit falls back to RTT/2.
func (a *Advisor) ObserveRTT(sec float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rtt.Observe(sec)
	a.mu.Unlock()
}

// SetLive records the current live worker count (distributed driver:
// joins and drops move it).
func (a *Advisor) SetLive(n int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.live = n
	a.mu.Unlock()
}

// ObserveAccept records one accepted result: the worker it came from,
// the cumulative completed count, and the event time on the driver's
// clock. This is the advisor's heartbeat — progress, drift smoothing
// and periodic snapshots all advance here.
func (a *Advisor) ObserveAccept(worker int, completed uint64, at float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.completed = completed
	if at > a.elapsed {
		a.elapsed = at
	}
	var (
		snap Report
		fire bool
	)
	if a.cfg.SnapshotEvery > 0 && at >= a.lastSnap+a.cfg.SnapshotEvery {
		a.lastSnap = at
		snap = a.report()
		a.drift.Observe(snap.DriftScore)
		snap.DriftSmoothed = sanitize(a.drift.Value())
		snap.DriftAlert = a.alert(snap.DriftSmoothed)
		a.mirror(snap)
		fire = a.cfg.OnSnapshot != nil
	}
	var fresh []int
	if fire {
		fresh = a.newlyFlagged(snap.Stragglers)
	}
	cb := a.cfg.OnSnapshot
	onStrag := a.cfg.OnStraggler
	a.mu.Unlock()
	if onStrag != nil {
		for _, w := range fresh {
			onStrag(w)
		}
	}
	if fire {
		cb(snap)
	}
	_ = worker // attribution lives in ObserveTF; kept for future per-worker accept rates
}

// newlyFlagged records which of the given stragglers have not been
// reported through OnStraggler yet; callers hold a.mu.
func (a *Advisor) newlyFlagged(stragglers []int) []int {
	var fresh []int
	for _, w := range stragglers {
		if !a.flagged[w] {
			a.flagged[w] = true
			fresh = append(fresh, w)
		}
	}
	return fresh
}

// Report computes the current analysis. Safe to call at any time, from
// any goroutine; polling does not perturb the drift smoothing.
func (a *Advisor) Report() Report {
	if a == nil {
		return Report{}
	}
	a.mu.Lock()
	r := a.report()
	if a.drift.Count() > 0 {
		r.DriftSmoothed = sanitize(a.drift.Value())
	} else {
		r.DriftSmoothed = r.DriftScore
	}
	r.DriftAlert = a.alert(r.DriftSmoothed)
	a.mirror(r)
	fresh := a.newlyFlagged(r.Stragglers)
	onStrag := a.cfg.OnStraggler
	a.mu.Unlock()
	if onStrag != nil {
		for _, w := range fresh {
			onStrag(w)
		}
	}
	return r
}

// alert reports whether the smoothed drift warrants an alert; callers
// hold a.mu.
func (a *Advisor) alert(smoothed float64) bool {
	return a.completed >= a.cfg.WarmupEvals && smoothed > a.cfg.DriftThreshold
}

// processors returns the effective P; callers hold a.mu.
func (a *Advisor) processors() int {
	if a.cfg.Processors > 0 {
		return a.cfg.Processors
	}
	if a.live > 0 {
		return a.live + 1 // master + live workers
	}
	return 0
}

// fitted returns the model.Times fit from the streams; callers hold
// a.mu. T_C falls back to half the heartbeat RTT when the driver has
// no direct one-way measurements.
func (a *Advisor) fitted() model.Times {
	t := model.Times{TF: a.tf.Mean(), TA: a.ta.Mean(), TC: a.tc.Mean()}
	if a.tc.Count() == 0 && a.rtt.Count() > 0 {
		t.TC = a.rtt.Mean() / 2
	}
	return t
}

// report builds the full Report; callers hold a.mu. DriftSmoothed and
// DriftAlert are filled by the callers, which know whether to advance
// the smoother.
func (a *Advisor) report() Report {
	p := a.processors()
	t := a.fitted()
	r := Report{
		Processors:  p,
		LiveWorkers: a.live,
		Budget:      a.cfg.Budget,
		Completed:   a.completed,
		Elapsed:     sanitize(a.elapsed),
		Times: FittedTimes{
			TF:      sanitize(t.TF),
			TA:      sanitize(t.TA),
			TC:      sanitize(t.TC),
			TFP50:   sanitize(a.tfP50.Value()),
			TFP90:   sanitize(a.tfP90.Value()),
			TFP99:   sanitize(a.tfP99.Value()),
			TFCV:    sanitize(a.tf.CV()),
			Samples: a.tf.Count(),
		},
		QueueWaitMean: sanitize(a.queue.Mean()),
		RTTMean:       sanitize(a.rtt.Mean()),
	}

	r.PredictedSpeedup = sanitize(model.AsyncSpeedupCapped(p, t))
	r.PredictedEfficiency = sanitize(model.AsyncEfficiencyCapped(p, t))
	if d := 2*t.TC + t.TA; d > 0 {
		r.ProcessorUpperBound = sanitize(t.TF / d)
	}
	if d := t.TF + t.TA; d > 0 {
		r.ProcessorLowerBound = sanitize(2 + 2*t.TC/d)
	}
	r.Saturation = sanitize(model.Saturation(p, t))

	if a.elapsed > 0 && a.completed > 0 {
		r.ObservedSpeedup = sanitize(model.SerialTime(a.completed, t) / a.elapsed)
		if p > 0 {
			r.ObservedEfficiency = sanitize(r.ObservedSpeedup / float64(p))
		}
		r.MasterUtilization = sanitize(math.Min(a.busy/a.elapsed, 1))
		r.EffectiveProcessors = sanitize(model.EffectiveProcessors(r.ObservedSpeedup, t))
		r.DriftScore = sanitize(model.RelativeError(r.ObservedSpeedup, r.PredictedSpeedup))
	}
	if a.cfg.Budget > a.completed {
		r.ETASeconds = sanitize(model.AsyncTimeRemaining(a.cfg.Budget-a.completed, p, t))
	}

	r.Workers, r.Stragglers = a.workerReports()
	r.Quality = a.qualityReport()
	return r
}

// workerReports builds the per-worker view and the straggler list;
// callers hold a.mu. A worker is a straggler when its decayed T_F is
// at least StragglerFactor times the fleet median, the worker has
// MinSamples evaluations, and at least three workers are comparable
// (a median of two is meaningless).
func (a *Advisor) workerReports() ([]WorkerReport, []int) {
	if len(a.workers) == 0 {
		return nil, nil
	}
	ids := make([]int, 0, len(a.workers))
	for id := range a.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Fleet median and MAD over workers with enough samples.
	var eligible []float64
	for _, id := range ids {
		ws := a.workers[id]
		if ws.tf.Count() >= a.cfg.MinSamples {
			eligible = append(eligible, ws.tf.Value())
		}
	}
	med := median(eligible)
	var mad float64
	if len(eligible) >= 3 {
		dev := make([]float64, len(eligible))
		for i, v := range eligible {
			dev[i] = math.Abs(v - med)
		}
		mad = median(dev) * 1.4826 // consistency constant for normal data
	}

	reports := make([]WorkerReport, 0, len(ids))
	var stragglers []int
	for _, id := range ids {
		ws := a.workers[id]
		wr := WorkerReport{
			Worker:    id,
			Evals:     ws.tf.Count(),
			TFDecayed: sanitize(ws.tf.Value()),
		}
		if med > 0 {
			wr.Ratio = sanitize(wr.TFDecayed / med)
		}
		if mad > 0 {
			wr.ZScore = sanitize((wr.TFDecayed - med) / mad)
		}
		if len(eligible) >= 3 && ws.tf.Count() >= a.cfg.MinSamples &&
			med > 0 && wr.TFDecayed >= a.cfg.StragglerFactor*med {
			wr.Straggler = true
			stragglers = append(stragglers, id)
		}
		reports = append(reports, wr)
	}
	return reports, stragglers
}

// mirror publishes the headline figures as registry gauges; callers
// hold a.mu (gauges themselves are atomic, but cfg is guarded).
func (a *Advisor) mirror(r Report) {
	a.g.predSpeedup.Set(r.PredictedSpeedup)
	a.g.obsSpeedup.Set(r.ObservedSpeedup)
	a.g.predEff.Set(r.PredictedEfficiency)
	a.g.obsEff.Set(r.ObservedEfficiency)
	a.g.drift.Set(r.DriftSmoothed)
	a.g.stragglers.Set(float64(len(r.Stragglers)))
	a.g.pUB.Set(r.ProcessorUpperBound)
	a.g.pLB.Set(r.ProcessorLowerBound)
	a.g.effective.Set(r.EffectiveProcessors)
	a.g.utilization.Set(r.MasterUtilization)
}

// Handler serves the current Report as JSON — mounted on the obs debug
// mux as /debug/scaling via obs.WithHandler.
func (a *Advisor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(a.Report()) //nolint:errcheck // best-effort, like /debug/vars
	})
}

// median returns the middle value of vs (mean of the middle two for
// even lengths), 0 when empty. vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// sanitize clamps non-finite values to 0 so Report always marshals
// (encoding/json rejects NaN and ±Inf).
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
