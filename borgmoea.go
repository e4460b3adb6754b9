// Package borgmoea is a from-scratch Go implementation of the Borg
// multiobjective evolutionary algorithm and of the parallel
// scalability study "Scalability Analysis of the Asynchronous,
// Master-Slave Borg Multiobjective Evolutionary Algorithm" (Hadka,
// Madduri & Reed, IEEE IPDPSW 2013).
//
// The package is a facade over the internal implementation:
//
//   - The serial Borg MOEA (ε-dominance archive, auto-adaptive
//     operator ensemble, adaptive restarts): NewBorg / Algorithm.
//   - The asynchronous master-slave parallel algorithm on a
//     discrete-event virtual cluster (RunAsync), the synchronous
//     generational baseline (RunSync), and a real TCP transport
//     where borgd worker daemons dial a listening master
//     (RunAsyncDistributed / RunWorker). Both virtual-time drivers are
//     fault-tolerant: a FaultPlan injects crashes, hangs and message
//     loss, and lease/barrier-timeout protocols recover lost work
//     (RunResilience measures the efficiency cost).
//   - The paper's analytical scalability model (SerialTime,
//     AsyncTime, ProcessorUpperBound, ProcessorLowerBound, SyncTime)
//     and its discrete-event simulation model (Simulate).
//   - Test problems (NewDTLZ2, NewUF11, NewDTLZ), quality metrics
//     (Hypervolume, HypervolumeMC, GenerationalDistance, ...), and
//     the experiment harness regenerating the paper's Table II and
//     Figures 3–5 (RunTable2, RunSpeedup, RunSurface).
//
// Quickstart:
//
//	problem := borgmoea.NewDTLZ2(2)
//	alg, _ := borgmoea.NewBorg(problem, borgmoea.Config{
//		Epsilons: borgmoea.UniformEpsilons(2, 0.01),
//	})
//	alg.Run(10000, nil)
//	front := alg.Archive().Objectives()
//
// See README.md for the architecture overview, DESIGN.md for the
// paper-to-module map, and EXPERIMENTS.md for reproduction results.
package borgmoea

import (
	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/experiment"
	"borgmoea/internal/fault"
	"borgmoea/internal/federation"
	"borgmoea/internal/jobs"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/model"
	"borgmoea/internal/nsga2"
	"borgmoea/internal/obs"
	"borgmoea/internal/operators"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// Core algorithm types.
type (
	// Algorithm is the Borg MOEA state machine (Suggest/Accept/Run).
	Algorithm = core.Borg
	// Config parameterizes the Borg MOEA.
	Config = core.Config
	// Solution is one candidate solution.
	Solution = core.Solution
	// Archive is the ε-dominance archive.
	Archive = core.Archive
	// Population is Borg's adaptive working population.
	Population = core.Population
	// Diagnostics records Borg's runtime dynamics (archive growth,
	// restarts, operator probabilities).
	Diagnostics = core.Diagnostics
	// DiagRecord is one Diagnostics snapshot.
	DiagRecord = core.DiagRecord
)

// Baseline algorithm types.
type (
	// NSGA2 is the generational NSGA-II baseline.
	NSGA2 = nsga2.NSGA2
	// NSGA2Config parameterizes NSGA-II.
	NSGA2Config = nsga2.Config
)

// Baseline constructors.
var (
	// NewNSGA2 constructs the NSGA-II baseline; MustNewNSGA2 panics
	// on configuration errors.
	NewNSGA2     = nsga2.New
	MustNewNSGA2 = nsga2.MustNew
)

// Problem types.
type (
	// Problem is a real-valued multiobjective minimization problem.
	Problem = problems.Problem
	// ConstrainedProblem adds inequality constraints.
	ConstrainedProblem = problems.Constrained
	// DTLZ is a member of the DTLZ test suite.
	DTLZ = problems.DTLZ
	// UF is a member UF1–UF10 of the CEC 2009 competition suite.
	UF = problems.UF
	// ZDT is a member of the bi-objective Zitzler-Deb-Thiele suite.
	ZDT = problems.ZDT
	// UF11 is the CEC 2009 rotated, scaled 5-objective DTLZ2.
	UF11 = problems.UF11
)

// Operator types.
type (
	// Operator is a variation operator over decision vectors.
	Operator = operators.Operator
)

// Parallel driver types.
type (
	// ParallelConfig describes one parallel run.
	ParallelConfig = parallel.Config
	// ParallelResult summarizes a parallel run.
	ParallelResult = parallel.Result
	// IslandsConfig describes a hierarchical multi-island run (the
	// paper's proposed future topology).
	IslandsConfig = parallel.IslandsConfig
	// IslandsResult summarizes a multi-island run.
	IslandsResult = parallel.IslandsResult
	// DistributedConfig describes the network side of a distributed
	// TCP master-slave run (RunAsyncDistributed).
	DistributedConfig = parallel.DistributedConfig
	// WorkerConfig parameterizes one distributed worker (RunWorker /
	// the borgd daemon).
	WorkerConfig = wire.WorkerConfig
	// WireOptions tunes a wire connection's heartbeat and timeouts.
	WireOptions = wire.Options
)

// Fault-injection types (see internal/fault): a FaultPlan attached to
// ParallelConfig.Fault injects crash-stop, crash-recover, transient
// hangs and message loss into the virtual cluster, and the drivers'
// lease/barrier-timeout protocols recover the lost work.
type (
	// FaultPlan is a composable fault-injection schedule.
	FaultPlan = fault.Plan
	// FaultRule applies one failure model to a set of node ranks.
	FaultRule = fault.Rule
	// FaultStats counts injected fault events.
	FaultStats = fault.Stats
	// CrashStop kills a node once, permanently.
	CrashStop = fault.CrashStop
	// CrashRecover alternates a node between up (MTBF) and down
	// (MTTR) states.
	CrashRecover = fault.CrashRecover
	// TransientHang freezes a node for bounded intervals without
	// losing its state.
	TransientHang = fault.TransientHang
)

// FailedFractionPlan builds a crash-recover plan over all workers with
// exponential MTBF/MTTR such that the given fraction of workers is
// down at any instant.
var FailedFractionPlan = fault.FailedFractionPlan

// Observability types (see internal/obs): attach a MetricsRegistry
// and/or TraceRecorder to ParallelConfig (or WireOptions) and every
// driver journals protocol events and records T_A/T_F/T_C, lease and
// transport telemetry.
type (
	// MetricsRegistry collects counters, gauges and timing histograms;
	// nil disables telemetry at zero hot-path cost.
	MetricsRegistry = obs.Registry
	// TraceRecorder journals protocol events for JSONL export and
	// Chrome trace_event rendering (chrome://tracing, Perfetto).
	TraceRecorder = obs.Recorder
	// ProtocolEvent is one journal entry.
	ProtocolEvent = obs.Event
	// DebugServer serves /healthz, /debug/vars and /debug/pprof for a
	// running master or worker.
	DebugServer = obs.DebugServer
	// DebugOption extends the debug server at construction time (see
	// WithDebugHandler).
	DebugOption = obs.DebugOption
)

// Observability constructors and helpers.
var (
	// NewMetrics returns an empty metrics registry.
	NewMetrics = obs.NewRegistry
	// NewTraceRecorder returns an event journal with the given
	// retention limit (0 = default).
	NewTraceRecorder = obs.NewRecorder
	// ServeDebug starts the live debug HTTP listener.
	ServeDebug = obs.ServeDebug
	// WithDebugHandler mounts an extra handler on the debug mux (how
	// the scalability advisor's /debug/scaling endpoint is attached).
	WithDebugHandler = obs.WithHandler
	// StartMetricsSnapshots periodically appends one-line JSON registry
	// snapshots to a writer (borgd's -advise-out journal).
	StartMetricsSnapshots = obs.StartSnapshots
	// NewLogger is the shared leveled CLI logger (log/slog).
	NewLogger = obs.NewLogger
	// LogfAdapter adapts a slog.Logger to printf-style Logf callbacks.
	LogfAdapter = obs.Logf
	// ValidateChromeTrace checks `-trace` output against the Chrome
	// trace-event schema subset the exporter emits.
	ValidateChromeTrace = obs.ValidateChromeTrace
)

// Distributed evaluation tracing (see internal/obs): attach a
// TraceCollector to ParallelConfig.Trace (or FederationConfig.Tracers)
// and every evaluation becomes one trace — a span context minted at
// grant time travels to the worker on the wire, and the collector
// assembles per-evaluation span trees whose children are the paper's
// model terms (queue wait, T_C send/recv, T_F, T_A). The collector's
// sidecar (TraceSidecar) plus the BMEL protocol log reconstruct the
// identical forest offline (TracesFromProtocolLog); borgview trace
// renders the attribution and Chrome trace exports.
type (
	// TraceCollector assembles distributed evaluation traces.
	TraceCollector = obs.Collector
	// TraceCollectorConfig sets the collector's run id, sampling rate
	// and span budget.
	TraceCollectorConfig = obs.CollectorConfig
	// TraceSpan is one node of an assembled trace tree.
	TraceSpan = obs.Span
	// TraceForest is an assembled, deterministically ordered set of
	// trace trees.
	TraceForest = obs.Forest
	// TraceSidecar is the collector's replayable duration sidecar (the
	// BTRC file next to a BMEL log).
	TraceSidecar = obs.TraceLog
	// TraceTermStats aggregates one model term across a forest.
	TraceTermStats = obs.TermStats
	// TraceAttribution is a forest's per-term critical-path breakdown
	// (the empirical Eq. 2 decomposition).
	TraceAttribution = obs.Attribution
	// SpanContext is the trace identity an evaluation carries across
	// process boundaries.
	SpanContext = obs.SpanContext
)

var (
	// NewTraceCollector constructs a live trace collector.
	NewTraceCollector = obs.NewCollector
	// ReadTraceSidecar deserializes a sidecar written with
	// TraceSidecar.WriteTo.
	ReadTraceSidecar = obs.ReadTraceLog
	// TracesFromProtocolLog reconstructs a run's trace forest offline
	// from its BMEL protocol log and BTRC sidecar.
	TracesFromProtocolLog = obs.TracesFromLog
	// WriteChromeTraceForests renders one or more forests as a merged
	// Chrome trace_event file with cross-process flow arrows.
	WriteChromeTraceForests = obs.WriteChromeForests
)

// Live scalability advisor (see internal/advisor): attach a
// ScalingAdvisor to ParallelConfig.Advisor and the async drivers
// stream their timing telemetry through the paper's analytical model —
// predicted vs observed speedup/efficiency, processor bounds, model
// drift and per-worker straggler detection, served at /debug/scaling
// and journaled as JSONL snapshots (borgview top renders either).
type (
	// ScalingAdvisor fits the analytical model to a live run.
	ScalingAdvisor = advisor.Advisor
	// AdvisorConfig tunes the advisor's thresholds and snapshots.
	AdvisorConfig = advisor.Config
	// AdvisorReport is one full scalability analysis (the
	// /debug/scaling response body and JSONL snapshot record).
	AdvisorReport = advisor.Report
	// WorkerScalingReport is one worker's straggler analysis entry.
	WorkerScalingReport = advisor.WorkerReport
)

// NewScalingAdvisor constructs a live scalability advisor.
var NewScalingAdvisor = advisor.New

// Search-health observability (see internal/obs): attach a
// QualitySampler to ParallelConfig.Quality (or FederationConfig.Quality,
// or opt a job in via JobSpec.QualityEvery) and the drivers snapshot
// the ε-archive on a cadence — incremental hypervolume, ε-progress
// rate, archive/population ratio, front spread and the Borg adaptive
// state (operator probabilities, restarts, tournament size) — emitted
// as quality.* gauges, served at /debug/quality, and recorded as
// EvQuality points in the BMEL log so any run's quality timeline
// reconstructs byte-identically offline (the QLOG sidecar;
// borgview timeline -quality renders one). Wire QualityConfig.OnSample to
// ScalingAdvisor.ObserveQuality for stall and restart-regression
// alerting in the /debug/scaling report.
type (
	// QualitySampler snapshots a live run's search quality.
	QualitySampler = obs.QualitySampler
	// QualitySamplerConfig sets the sampler's cadence, reference point
	// and hypervolume estimator bounds.
	QualitySamplerConfig = obs.QualityConfig
	// QualitySample is one quality snapshot.
	QualitySample = obs.QualitySample
	// QualityReport is the /debug/quality response body.
	QualityReport = obs.QualityReport
	// QualitySidecar is the sampler's replayable QLOG timeline (the
	// BQLG file next to a BMEL log).
	QualitySidecar = obs.QualityLog
	// QualityHealth is the advisor's stall/regression section of an
	// AdvisorReport.
	QualityHealth = advisor.QualityHealth
)

var (
	// NewQualitySampler constructs a quality sampler; attach it via
	// ParallelConfig.Quality.
	NewQualitySampler = obs.NewQualitySampler
	// ReadQualitySidecar deserializes a QLOG written with
	// QualitySidecar.WriteTo.
	ReadQualitySidecar = obs.ReadQualityLog
	// MeasureFront computes a front's hypervolume deterministically:
	// exact within maxExact points, seeded Monte Carlo beyond.
	MeasureFront = obs.MeasureFront
	// FrontSpread is the bounding-box diagonal of a front.
	FrontSpread = obs.FrontSpread
)

// Multi-master federation (see internal/federation): k island masters
// — each a full asynchronous master-slave instance over its own worker
// pool — exchange ε-archive members in a ring over TCP and optionally
// stream archive deltas to a merging root. The paper's Eq. 4 ceiling
// P_UB = T_F/(2·T_C + T_A) binds each island separately, so the
// federation's aggregate useful processor count approaches k·P_UB.
// cmd/borgfed runs a federation; borgview top -fed watches one.
type (
	// FederationConfig describes one TCP federation run.
	FederationConfig = federation.Config
	// FederationResult summarizes a federation run.
	FederationResult = federation.Result
	// FederationReplayResult is the offline reconstruction of a
	// federated run from its BMEL and migrant sidecar logs.
	FederationReplayResult = federation.ReplayResult
	// MigrantLog is the per-island sidecar log of outgoing migrants
	// that, together with the BMEL log, makes a federated run
	// replayable.
	MigrantLog = federation.MigrantLog
	// FederationRoot is the live merging root (FederationConfig.OnRoot
	// hands it out so merged-front quality can be served mid-run).
	FederationRoot = federation.Root
	// ScalingFederation rolls per-island scalability advisors up into
	// one federated analysis (the federation-level /debug/scaling).
	ScalingFederation = advisor.Federation
	// FederationScalingReport is the federated roll-up's response body.
	FederationScalingReport = advisor.FederationReport
)

var (
	// RunFederation executes a multi-master federation over loopback or
	// LAN TCP.
	RunFederation = federation.Run
	// ReplayFederation reconstructs a federated run offline from its
	// per-island logs.
	ReplayFederation = federation.Replay
	// ReplayFederationQuality is ReplayFederation with per-island
	// quality samplers regenerating each island's QLOG timeline.
	ReplayFederationQuality = federation.ReplayQuality
	// NewMigrantLog returns an empty migrant sidecar log.
	NewMigrantLog = federation.NewMigrantLog
	// ReadMigrantLog deserializes a log written with MigrantLog.WriteTo.
	ReadMigrantLog = federation.ReadMigrantLog
	// NewScalingFederation returns an empty federated advisor roll-up.
	NewScalingFederation = advisor.NewFederation
	// CompareFederationScaling runs the DES federation-vs-single-master
	// experiment past the single-master processor bound.
	CompareFederationScaling = experiment.CompareFederation
)

// Multi-tenant job service (see internal/jobs): a JobScheduler owns a
// shared borgd fleet and multiplexes many concurrent Borg runs over
// it — one master core per job, stride-scheduled fair sharing,
// per-job checkpoint streams that survive server restarts, and an
// HTTP job API served next to the /debug endpoints
// (JobScheduler.DebugOptions). cmd/borgsvc runs the service; borgq is
// its client.
type (
	// JobScheduler multiplexes submitted jobs over one borgd fleet.
	JobScheduler = jobs.Scheduler
	// JobServiceConfig parameterizes the scheduler (fleet listener,
	// backpressure bounds, persistence directory).
	JobServiceConfig = jobs.Config
	// JobSpec is one job submission: problem, budget, epsilons, seed,
	// fair-share priority.
	JobSpec = jobs.Spec
	// JobStatus is a job's externally visible state.
	JobStatus = jobs.Status
	// JobState is a job's lifecycle phase (queued/running/done/...).
	JobState = jobs.State
)

var (
	// NewJobScheduler starts a job scheduler on its fleet listener.
	NewJobScheduler = jobs.New
	// DecodeJobSubmit parses one job submission (the HTTP POST /jobs
	// body format).
	DecodeJobSubmit = jobs.DecodeSubmit
)

// Model types.
type (
	// Times bundles mean T_F, T_A, T_C.
	Times = model.Times
	// SimConfig parameterizes the simulation model.
	SimConfig = model.SimConfig
	// SimResult is a simulation model prediction.
	SimResult = model.SimResult
)

// Distribution types.
type (
	// Distribution is a sampleable probability distribution.
	Distribution = stats.Distribution
	// Rand is a deterministic random source for sampling
	// distributions (see NewRand).
	Rand = rng.Source
)

// NewRand returns a deterministic random source seeded from seed, for
// use with Distribution.Sample.
var NewRand = rng.New

// Experiment harness types.
type (
	// Table2Config / Table2Cell reproduce the paper's Table II.
	Table2Config = experiment.Table2Config
	Table2Cell   = experiment.Table2Cell
	// SpeedupConfig / SpeedupResult reproduce Figures 3–4.
	SpeedupConfig = experiment.SpeedupConfig
	SpeedupResult = experiment.SpeedupResult
	// SurfaceConfig / SurfaceResult reproduce Figure 5.
	SurfaceConfig = experiment.SurfaceConfig
	SurfaceResult = experiment.SurfaceResult
	// TimingReport is measured T_A data with fitted distributions.
	TimingReport = experiment.TimingReport
	// HierarchyPlan recommends an island decomposition.
	HierarchyPlan = experiment.HierarchyPlan
	// DynamicsConfig / DynamicsRow sweep the algorithm's adaptive
	// dynamics across processor counts (paper §VI-A).
	DynamicsConfig = experiment.DynamicsConfig
	DynamicsRow    = experiment.DynamicsRow
	// ResilienceConfig / ResilienceResult / ResilienceCell measure
	// efficiency versus worker-failure rate, sync vs async.
	ResilienceConfig = experiment.ResilienceConfig
	ResilienceResult = experiment.ResilienceResult
	ResilienceCell   = experiment.ResilienceCell
)

// Algorithm constructors.
var (
	// NewBorg constructs a Borg MOEA instance.
	NewBorg = core.New
	// MustNewBorg is NewBorg that panics on configuration errors.
	MustNewBorg = core.MustNew
	// UniformEpsilons broadcasts one ε across m objectives.
	UniformEpsilons = core.UniformEpsilons
	// InitUniform / InitLatinHypercube select the initial sampling
	// scheme in Config.Initialization.
	InitUniform        = core.InitUniform
	InitLatinHypercube = core.InitLatinHypercube
	// EvaluateSolution computes a solution's objectives in place.
	EvaluateSolution = core.EvaluateSolution
)

// Problem constructors.
var (
	// NewDTLZ2 returns the m-objective DTLZ2 problem.
	NewDTLZ2 = problems.NewDTLZ2
	// NewDTLZ returns DTLZ1–7 with m objectives.
	NewDTLZ = problems.NewDTLZ
	// NewUF returns UF1–UF10 with n variables.
	NewUF = problems.NewUF
	// NewUF11 returns the paper's 5-objective UF11 instance.
	NewUF11 = problems.NewUF11
	// NewUF11Custom builds a rotated-scaled DTLZ2 variant.
	NewUF11Custom = problems.NewUF11Custom
	// NewZDT returns ZDT1–4 or ZDT6.
	NewZDT = problems.NewZDT
	// ZDTFront samples a ZDT problem's Pareto front.
	ZDTFront = problems.ZDTFront
	// NewSchaffer, NewFonsecaFleming and NewKursawe are the classic
	// small bi-objective problems.
	NewSchaffer       = problems.NewSchaffer
	NewFonsecaFleming = problems.NewFonsecaFleming
	NewKursawe        = problems.NewKursawe
	// NewRotated wraps any problem with a fixed random orthogonal
	// rotation of its decision space (UF11's construction,
	// generalized).
	NewRotated = problems.NewRotated
	// SphereFront samples the DTLZ2/UF11 Pareto front.
	SphereFront = problems.SphereFront
	// IdealSphereHypervolume is the closed-form front hypervolume.
	IdealSphereHypervolume = problems.IdealSphereHypervolume
)

// Operator constructors (Borg defaults).
var (
	BorgEnsemble = operators.BorgEnsemble
	NewSBX       = operators.NewSBX
	NewDE        = operators.NewDE
	NewPCX       = operators.NewPCX
	NewSPX       = operators.NewSPX
	NewUNDX      = operators.NewUNDX
	NewUM        = operators.NewUM
	NewPM        = operators.NewPM
)

// Protocol event log (see internal/master): attach a ProtocolLog to
// ParallelConfig.Protocol and any transport's run records the exact
// event sequence its master state machine consumed; the log replays
// off-line to the identical Result with ReplayAsync.
type (
	// ProtocolLog records a master run's protocol events for replay.
	ProtocolLog = master.Log
	// MasterEvent is one recorded master protocol event (the OnRecord
	// hook's argument).
	MasterEvent = master.Event
	// ProtocolLogWriter streams a BMEL log to disk at event
	// granularity — wire it to a recording ProtocolLog through the
	// OnRecord hook and an interrupted run keeps every complete
	// record.
	ProtocolLogWriter = master.LogWriter
)

var (
	// NewProtocolLog returns an empty event log ready to attach to
	// ParallelConfig.Protocol.
	NewProtocolLog = master.NewLog
	// ReadProtocolLog deserializes a log written with ProtocolLog.WriteTo.
	ReadProtocolLog = master.ReadLog
	// NewProtocolLogWriter writes the streaming header and returns the
	// event-granular writer.
	NewProtocolLogWriter = master.NewLogWriter
	// ReplayAsync re-executes a recorded run from its event log.
	ReplayAsync = parallel.ReplayAsync
)

// Parallel drivers.
var (
	// RunAsync executes the asynchronous master-slave Borg MOEA on
	// the virtual cluster (virtual time).
	RunAsync = parallel.RunAsync
	// RunSync executes the synchronous generational baseline.
	RunSync = parallel.RunSync
	// RunIslands executes several concurrent master-slave instances
	// (the hierarchical topology of the paper's Section VI).
	RunIslands = parallel.RunIslands
	// RunAsyncDistributed executes the asynchronous master-slave
	// algorithm over real TCP: the master listens and borgd workers
	// dial in (see internal/wire).
	RunAsyncDistributed = parallel.RunAsyncDistributed
	// RunWorker runs one distributed worker until the master stops it
	// (the in-process equivalent of the borgd daemon).
	RunWorker = wire.RunWorker
)

// Problem resolution shared by the CLI tools and the distributed
// worker runtime.
var (
	// LookupProblem resolves a CLI-style problem name plus an
	// objective count ("DTLZ2" with m=5, "UF11", "ZDT3", ...).
	LookupProblem = problems.Lookup
	// LookupProblemByName resolves a canonical Problem.Name() string —
	// the form the distributed master announces in its handshake.
	LookupProblemByName = problems.ByName
)

// Archive persistence.
var (
	// SaveArchive writes an archive as JSON; LoadArchive reads it
	// back, re-applying ε-dominance.
	SaveArchive = core.SaveArchive
	LoadArchive = core.LoadArchive
)

// Scalability models (the paper's equations).
var (
	// SerialTime is Eq. 1: T_S = N(T_F + T_A).
	SerialTime = model.SerialTime
	// AsyncTime is Eq. 2: T_P = N/(P−1)·(T_F + 2T_C + T_A).
	AsyncTime = model.AsyncTime
	// AsyncSpeedup and AsyncEfficiency derive from Eqs. 1–2.
	AsyncSpeedup    = model.AsyncSpeedup
	AsyncEfficiency = model.AsyncEfficiency
	// ProcessorUpperBound is Eq. 3: P_UB = T_F/(2T_C + T_A).
	ProcessorUpperBound = model.ProcessorUpperBound
	// ProcessorLowerBound is Eq. 4: P_LB > 2 + 2T_C/(T_F + T_A).
	ProcessorLowerBound = model.ProcessorLowerBound
	// SyncTime is Eq. 6 (Cantú-Paz).
	SyncTime       = model.SyncTime
	SyncSpeedup    = model.SyncSpeedup
	SyncEfficiency = model.SyncEfficiency
	// RelativeError is Eq. 5.
	RelativeError = model.RelativeError
	// Simulate runs the discrete-event simulation model once;
	// SimulateMean averages replicates.
	Simulate     = model.Simulate
	SimulateMean = model.SimulateMean
	// SimEfficiency converts simulated elapsed time to efficiency.
	SimEfficiency = model.SimEfficiency
)

// Quality metrics.
var (
	// Hypervolume is the exact WFG hypervolume.
	Hypervolume = metrics.Hypervolume
	// HypervolumeMC is the Monte-Carlo estimator.
	HypervolumeMC = metrics.HypervolumeMC
	// GenerationalDistance, InvertedGenerationalDistance,
	// AdditiveEpsilon and Spacing are the standard set indicators.
	GenerationalDistance         = metrics.GenerationalDistance
	InvertedGenerationalDistance = metrics.InvertedGenerationalDistance
	AdditiveEpsilon              = metrics.AdditiveEpsilon
	Spacing                      = metrics.Spacing
	// Coverage is Zitzler's C-metric C(a, b).
	Coverage = metrics.Coverage
	// NondominatedFilter extracts the nondominated subset.
	NondominatedFilter = metrics.NondominatedFilter
	// Dominates is Pareto dominance on objective vectors.
	Dominates = metrics.Dominates
	// RefScale, RefPoint and RefPointFor are the shared hypervolume
	// reference-point conventions (see internal/metrics/refpoint.go).
	RefScale    = metrics.RefScale
	RefPoint    = metrics.RefPoint
	RefPointFor = metrics.RefPointFor
	// ReferenceFront samples a problem's analytic Pareto front when
	// one is known (nil otherwise).
	ReferenceFront = problems.ReferenceFront
)

// Reference-point constants shared by every hypervolume consumer.
const (
	// DefaultRefScale is the conventional unit-box reference
	// coordinate (ZDT problems use RefScale instead).
	DefaultRefScale = metrics.DefaultRefScale
	// DefaultHVSamples is the conventional Monte Carlo sample count.
	DefaultHVSamples = metrics.DefaultHVSamples
)

// Timing distributions.
var (
	// ConstantDist, UniformDist, etc. construct distributions for
	// T_F/T_A/T_C modeling.
	ConstantDist    = stats.NewConstant
	UniformDist     = stats.NewUniform
	NormalDist      = stats.NewNormal
	LogNormalDist   = stats.NewLogNormal
	ExponentialDist = stats.NewExponential
	GammaDist       = stats.NewGamma
	WeibullDist     = stats.NewWeibull
	// GammaFromMeanCV is the paper's controlled-delay distribution:
	// a Gamma with given mean and coefficient of variation.
	GammaFromMeanCV = stats.GammaFromMeanCV
	// FitDistributions fits all candidate families to a sample,
	// sorted by log-likelihood; SelectBestFit returns the winner.
	FitDistributions = stats.FitAll
	SelectBestFit    = stats.SelectBest
)

// Experiment harness.
var (
	// RunTable2 reproduces Table II.
	RunTable2 = experiment.RunTable2
	// RunSpeedup reproduces one Figure 3/4 panel.
	RunSpeedup = experiment.RunSpeedup
	// RunSurface reproduces Figure 5.
	RunSurface = experiment.RunSurface
	// CollectTimings measures T_A and fits distributions.
	CollectTimings = experiment.CollectTimings
	// PlanHierarchy sizes master-slave islands with the simulation
	// model.
	PlanHierarchy = experiment.PlanHierarchy
	// RunDynamics sweeps the adaptive dynamics across processor
	// counts; WriteDynamics renders the result.
	RunDynamics   = experiment.RunDynamics
	WriteDynamics = experiment.WriteDynamics
	// RunResilience measures efficiency versus failure rate;
	// WriteResilience renders the table.
	RunResilience   = experiment.RunResilience
	WriteResilience = experiment.WriteResilience
	// Renderers for harness outputs.
	WriteTable2       = experiment.WriteTable2
	WriteTable2CSV    = experiment.WriteTable2CSV
	WriteSpeedup      = experiment.WriteSpeedup
	WriteSpeedupCSV   = experiment.WriteSpeedupCSV
	WriteSurface      = experiment.WriteSurface
	WriteSurfaceCSV   = experiment.WriteSurfaceCSV
	WriteTimingReport = experiment.WriteTimingReport
)
