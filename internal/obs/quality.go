package obs

import (
	"math"
	"sync"

	"borgmoea/internal/core"
	"borgmoea/internal/metrics"
)

// The quality sampler is the search-health half of the observability
// stack: where the timing layer (metrics/tracing/advisor) measures the
// paper's model terms, this layer measures whether the search is
// actually converging — incremental hypervolume, ε-progress, front
// spread, and Borg's adaptive state (operator probabilities, restarts,
// tournament size). Samples are triggered by the master as EvQuality
// events, so a recorded run's BMEL log replays its quality timeline
// offline, bit for bit: the log is the timeline's only record.

// QualityLog is a run's quality timeline in memory: the samples and
// what they were measured against.
type QualityLog struct {
	Ref       []float64
	MaxExact  int
	MCSamples int
	Operators []string
	Samples   []QualitySample
}

// Default sampler tuning. MaxExact bounds the archive size up to which
// the exact WFG hypervolume runs; larger archives fall back to a
// fixed-seed Monte Carlo estimate so a sample stays cheap and
// deterministic.
const (
	DefaultQualityMaxExact  = 64
	DefaultQualityMCSamples = 1024
	DefaultQualityHistory   = 256
)

// qualityMCSeed salts the per-sample Monte Carlo seed so estimates are
// reproducible run-over-run and replay-over-record.
const qualityMCSeed = 0x514c4f47 // "QLOG"

// QualityConfig configures a QualitySampler.
type QualityConfig struct {
	// Every samples once per this many accepted evaluations
	// (0 = no evaluation-count cadence).
	Every uint64
	// WallEvery samples once per this many seconds of driver time —
	// DES-virtual or wall-clock, whichever clock the driver stamps
	// events with (0 = no time cadence). Time-triggered samples stay
	// replayable because the trigger is recorded as an EvQuality
	// event in the BMEL log.
	WallEvery float64
	// Ref is the hypervolume reference point (required; use
	// metrics.RefPointFor for the shared convention).
	Ref []float64
	// MaxExact is the archive size up to which exact WFG hypervolume
	// is computed (default DefaultQualityMaxExact).
	MaxExact int
	// MCSamples is the Monte Carlo sample count used above MaxExact
	// (default DefaultQualityMCSamples).
	MCSamples int
	// HistoryCap bounds the in-memory sample window Report returns
	// (default DefaultQualityHistory). The full timeline is
	// always kept in Log.
	HistoryCap int
	// Metrics, when non-nil, mirrors the latest sample as
	// quality.* gauges.
	Metrics *Registry
	// GaugePrefix overrides the "quality." gauge namespace —
	// federation uses it to keep per-island series apart on a shared
	// registry.
	GaugePrefix string
	// OnSample, when non-nil, receives every sample synchronously on
	// the sampling goroutine (the advisor's stall detector hooks in
	// here).
	OnSample func(QualitySample)
}

// QualitySample is one point of a run's quality timeline. All fields
// are deterministic functions of the algorithm state at the trigger
// point, so replaying the recorded event log regenerates the identical
// sample.
type QualitySample struct {
	// Seq is the 0-based sample index within the run.
	Seq uint64 `json:"seq"`
	// At is the driver clock at the trigger (seconds).
	At float64 `json:"at"`
	// Evaluations completed when the sample was taken.
	Evaluations uint64 `json:"evaluations"`
	// Hypervolume of the ε-archive front relative to Ref (exact WFG
	// up to MaxExact points, fixed-seed Monte Carlo beyond).
	Hypervolume float64 `json:"hypervolume"`
	// EpsProgress is the cumulative ε-progress counter: how many
	// accepts opened a new nondominated ε-box (Borg's restart
	// trigger signal).
	EpsProgress uint64 `json:"eps_progress"`
	// ArchiveSize and PopulationSize snapshot the two populations.
	ArchiveSize    int `json:"archive_size"`
	PopulationSize int `json:"population_size"`
	// Restarts is the cumulative adaptive-restart count.
	Restarts uint64 `json:"restarts"`
	// TournamentSize is the current adapted tournament size.
	TournamentSize int `json:"tournament_size"`
	// FrontSpread is the Euclidean norm of the front's per-objective
	// extents — the bounding-box diagonal, a cheap diversity proxy.
	FrontSpread float64 `json:"front_spread"`
	// OperatorProbs are the auto-adapted operator selection
	// probabilities, aligned with the sampler's Operators().
	OperatorProbs []float64 `json:"operator_probs"`
}

// qualityGauges mirrors the latest sample onto a Registry. All fields
// are nil-safe no-ops when no registry is attached.
type qualityGauges struct {
	samples                            *Counter
	hv, epsProgress, epsRate           *Gauge
	archive, population, ratio, spread *Gauge
	restarts, tournament               *Gauge
	operators                          []*Gauge
}

func newQualityGauges(reg *Registry, prefix string, ops []string) qualityGauges {
	g := qualityGauges{
		samples:     reg.Counter(prefix + "samples"),
		hv:          reg.Gauge(prefix + "hypervolume"),
		epsProgress: reg.Gauge(prefix + "eps_progress"),
		epsRate:     reg.Gauge(prefix + "eps_progress_rate"),
		archive:     reg.Gauge(prefix + "archive_size"),
		population:  reg.Gauge(prefix + "population_size"),
		ratio:       reg.Gauge(prefix + "archive_population_ratio"),
		spread:      reg.Gauge(prefix + "front_spread"),
		restarts:    reg.Gauge(prefix + "restarts"),
		tournament:  reg.Gauge(prefix + "tournament_size"),
	}
	g.operators = make([]*Gauge, len(ops))
	for i, name := range ops {
		g.operators[i] = reg.Gauge(prefix + "operator_prob." + name)
	}
	return g
}

// QualitySampler snapshots one Borg instance's search health on a
// bounded cadence. Like the advisor and the trace collector it is
// caller-constructed (so a /debug/quality handler can be mounted
// before the run starts) and driver-attached to the algorithm. The
// driver asks Due after every accepted result and, when it fires,
// routes the trigger through the master as an EvQuality event whose
// handler calls Sample — that detour is what pins the sample point
// into the BMEL log for replay. A nil sampler is inert: Due always
// reports false and the other methods no-op.
type QualitySampler struct {
	cfg QualityConfig

	mu        sync.Mutex
	alg       *core.Borg
	ops       []string
	g         qualityGauges
	log       *QualityLog
	lastEvals uint64
	lastAt    float64
	rate      float64 // ε-progress per driver-second, latest inter-sample window
	started   bool
}

// NewQualitySampler builds an unattached sampler. Config zero values
// get defaults; a nil Ref disables hypervolume (reported as 0) but
// keeps every other series live.
func NewQualitySampler(cfg QualityConfig) *QualitySampler {
	if cfg.MaxExact == 0 {
		cfg.MaxExact = DefaultQualityMaxExact
	}
	if cfg.MCSamples == 0 {
		cfg.MCSamples = DefaultQualityMCSamples
	}
	if cfg.HistoryCap == 0 {
		cfg.HistoryCap = DefaultQualityHistory
	}
	if cfg.GaugePrefix == "" {
		cfg.GaugePrefix = "quality."
	}
	return &QualitySampler{
		cfg: cfg,
		log: &QualityLog{
			Ref:       append([]float64(nil), cfg.Ref...),
			MaxExact:  cfg.MaxExact,
			MCSamples: cfg.MCSamples,
		},
	}
}

// Attach binds the sampler to the algorithm it snapshots — the driver
// calls this once, before the first event. Attach(nil) detaches it when
// the run ends, so the sampler keeps its timeline but no pointer to an
// algorithm that may be reused; a later Sample is empty. Nil-safe.
func (s *QualitySampler) Attach(alg *core.Borg) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alg = alg
	if alg == nil {
		return
	}
	s.ops = alg.OperatorNames()
	s.g = newQualityGauges(s.cfg.Metrics, s.cfg.GaugePrefix, s.ops)
	s.log.Operators = s.ops
}

// Operators returns the operator names OperatorProbs aligns with
// (empty until Attach).
func (s *QualitySampler) Operators() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Due reports whether the cadence calls for a sample at (completed,
// at). It is a pure read — the bookkeeping advances only when Sample
// runs — so the driver can consult it after every accept for the cost
// of a mutex. The first accept always samples (baseline point).
func (s *QualitySampler) Due(completed uint64, at float64) bool {
	if s == nil || (s.cfg.Every == 0 && s.cfg.WallEvery == 0) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return true
	}
	if s.cfg.Every != 0 && completed >= s.lastEvals+s.cfg.Every {
		return true
	}
	if s.cfg.WallEvery != 0 && at >= s.lastAt+s.cfg.WallEvery {
		return true
	}
	return false
}

// NextSeq returns the sequence number the next Sample will take —
// the driver stamps it into the EvQuality event's Item field so
// recorded logs are self-describing.
func (s *QualitySampler) NextSeq() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.log.Samples))
}

// Sample snapshots the algorithm now, appends the sample to the
// timeline, mirrors gauges, and notifies OnSample. The caller supplies
// the trigger point (seq from the EvQuality event's Item, at from its
// clock stamp); everything else is read from the algorithm, which on
// the master goroutine — live or replaying — is in the identical
// post-flush state, making the resulting timeline byte-reproducible.
func (s *QualitySampler) Sample(seq uint64, at float64) QualitySample {
	if s == nil {
		return QualitySample{}
	}
	s.mu.Lock()
	alg := s.alg
	s.mu.Unlock()
	if alg == nil {
		return QualitySample{}
	}
	arch := alg.Archive()
	front := arch.Objectives()
	sample := QualitySample{
		Seq:            seq,
		At:             at,
		Evaluations:    alg.Evaluations(),
		EpsProgress:    arch.Improvements(),
		ArchiveSize:    arch.Size(),
		PopulationSize: alg.Population().Size(),
		Restarts:       alg.Restarts(),
		TournamentSize: alg.TournamentSize(),
		FrontSpread:    FrontSpread(front),
		OperatorProbs:  alg.OperatorProbabilities(),
	}
	if len(s.cfg.Ref) > 0 {
		sample.Hypervolume = MeasureFront(front, s.cfg.Ref, s.cfg.MaxExact, s.cfg.MCSamples, qualityMCSeed^seq)
	}

	s.mu.Lock()
	if s.started {
		if dt := at - s.lastAt; dt > 0 {
			prev := s.log.Samples[len(s.log.Samples)-1]
			s.rate = float64(sample.EpsProgress-prev.EpsProgress) / dt
		}
	}
	s.started = true
	s.lastEvals = sample.Evaluations
	s.lastAt = at
	s.log.Samples = append(s.log.Samples, sample)
	rate := s.rate
	s.mu.Unlock()

	s.mirror(sample, rate)
	if s.cfg.OnSample != nil {
		s.cfg.OnSample(sample)
	}
	return sample
}

// mirror publishes one sample onto the attached registry.
func (s *QualitySampler) mirror(q QualitySample, rate float64) {
	s.g.samples.Inc()
	s.g.hv.Set(q.Hypervolume)
	s.g.epsProgress.Set(float64(q.EpsProgress))
	s.g.epsRate.Set(rate)
	s.g.archive.Set(float64(q.ArchiveSize))
	s.g.population.Set(float64(q.PopulationSize))
	if q.PopulationSize > 0 {
		s.g.ratio.Set(float64(q.ArchiveSize) / float64(q.PopulationSize))
	}
	s.g.spread.Set(q.FrontSpread)
	s.g.restarts.Set(float64(q.Restarts))
	s.g.tournament.Set(float64(q.TournamentSize))
	for i, g := range s.g.operators {
		if i < len(q.OperatorProbs) {
			g.Set(q.OperatorProbs[i])
		}
	}
}

// Latest returns the most recent sample, if any.
func (s *QualitySampler) Latest() (QualitySample, bool) {
	if s == nil {
		return QualitySample{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.log.Samples) == 0 {
		return QualitySample{}, false
	}
	return s.log.Samples[len(s.log.Samples)-1], true
}

// History returns a copy of the last HistoryCap samples.
func (s *QualitySampler) History() []QualitySample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.log.Samples)
	if n > s.cfg.HistoryCap {
		n = s.cfg.HistoryCap
	}
	return append([]QualitySample(nil), s.log.Samples[len(s.log.Samples)-n:]...)
}

// Log returns a snapshot of the full quality timeline.
func (s *QualitySampler) Log() *QualityLog {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := *s.log
	cp.Samples = append([]QualitySample(nil), s.log.Samples...)
	return &cp
}

// EpsProgressRate returns the latest inter-sample ε-progress rate
// (boxes opened per driver-second).
func (s *QualitySampler) EpsProgressRate() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rate
}

// QualityReport is the /debug/quality JSON document.
type QualityReport struct {
	Operators       []string        `json:"operators"`
	Ref             []float64       `json:"ref,omitempty"`
	EpsProgressRate float64         `json:"eps_progress_rate"`
	Latest          *QualitySample  `json:"latest,omitempty"`
	History         []QualitySample `json:"history,omitempty"`
}

// Report assembles the endpoint document.
func (s *QualitySampler) Report() QualityReport {
	if s == nil {
		return QualityReport{}
	}
	rep := QualityReport{
		Operators:       s.Operators(),
		Ref:             s.cfg.Ref,
		EpsProgressRate: s.EpsProgressRate(),
		History:         s.History(),
	}
	if latest, ok := s.Latest(); ok {
		rep.Latest = &latest
	}
	return rep
}

// MeasureFront computes the deterministic hypervolume the sampler
// uses: exact WFG up to maxExact points, fixed-seed Monte Carlo
// beyond. It is exported so merged fronts (the federation root) are
// measured with the identical rule. The front must be mutually
// nondominated — true of every ε-archive front, which is where all
// callers get theirs — letting the MC path skip the O(n²) dominance
// filter without changing the estimate.
func MeasureFront(front [][]float64, ref []float64, maxExact, mcSamples int, seed uint64) float64 {
	if len(front) == 0 || len(ref) == 0 {
		return 0
	}
	if maxExact <= 0 {
		maxExact = DefaultQualityMaxExact
	}
	if mcSamples <= 0 {
		mcSamples = DefaultQualityMCSamples
	}
	if len(front) <= maxExact {
		return metrics.Hypervolume(front, ref)
	}
	return metrics.HypervolumeMCNondominated(front, ref, mcSamples, seed)
}

// FrontSpread returns the Euclidean norm of the front's per-objective
// extents (the objective-space bounding-box diagonal): 0 for fewer
// than two points, growing as the front covers more of each objective.
func FrontSpread(front [][]float64) float64 {
	if len(front) < 2 {
		return 0
	}
	m := len(front[0])
	sum := 0.0
	for j := 0; j < m; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range front {
			if p[j] < lo {
				lo = p[j]
			}
			if p[j] > hi {
				hi = p[j]
			}
		}
		d := hi - lo
		sum += d * d
	}
	return math.Sqrt(sum)
}
