// Package borgmoea is a from-scratch Go implementation of the Borg
// multiobjective evolutionary algorithm and of the parallel
// scalability study "Scalability Analysis of the Asynchronous,
// Master-Slave Borg Multiobjective Evolutionary Algorithm" (Hadka,
// Madduri & Reed, IEEE IPDPSW 2013).
//
// The package is a facade over the internal implementation, holding
// the names the repository's binaries, tests and examples use:
//
//   - The serial Borg MOEA (ε-dominance archive, auto-adaptive
//     operator ensemble, adaptive restarts): NewBorg / Algorithm.
//   - The asynchronous master-slave parallel algorithm on a
//     discrete-event virtual cluster (RunAsync), the synchronous
//     generational baseline (RunSync), and a real TCP transport
//     where borgd worker daemons dial a listening master
//     (RunAsyncDistributed / RunWorker). Both virtual-time drivers are
//     fault-tolerant: a fault plan (FailedFractionPlan) injects
//     crash-recover failures, and lease/barrier-timeout protocols
//     recover the lost work.
//   - The paper's analytical scalability model (SerialTime,
//     AsyncTime, ProcessorUpperBound, ProcessorLowerBound) and its
//     discrete-event simulation model (Simulate).
//   - Test problems (NewDTLZ2, NewUF11, LookupProblem), hypervolume
//     (Hypervolume, HypervolumeMC), and the experiment harness
//     regenerating the paper's Table II and Figures 3–5 (RunTable2,
//     RunSpeedup, RunSurface).
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
	"borgmoea/internal/des"
	"borgmoea/internal/experiment"
	"borgmoea/internal/fault"
	"borgmoea/internal/federation"
	"borgmoea/internal/jobs"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/model"
	"borgmoea/internal/obs"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// Core algorithm types.
type (
	// Algorithm is the Borg MOEA state machine (Suggest/Accept/Run).
	// Accept takes ownership. Clone a solution to keep it: a solution
	// Suggest returned may be rewritten as a later offspring once it is
	// in neither the population nor the archive.
	Algorithm = core.Borg
	// Config parameterizes the Borg MOEA.
	Config = core.Config
	// Archive is the ε-dominance archive.
	Archive = core.Archive
	// Problem is a real-valued multiobjective minimization problem.
	Problem = problems.Problem
)

// Parallel driver types.
type (
	// ParallelConfig describes one parallel run.
	ParallelConfig = parallel.Config
	// DistributedConfig describes the network side of a distributed
	// TCP master-slave run (RunAsyncDistributed).
	DistributedConfig = parallel.DistributedConfig
	// WorkerConfig parameterizes one distributed worker (RunWorker /
	// the borgd daemon).
	WorkerConfig = wire.WorkerConfig
	// WireOptions tunes a wire connection's heartbeat and timeouts.
	WireOptions = wire.Options
)

// FailedFractionPlan builds a crash-recover plan over all workers with
// exponential MTBF/MTTR such that the given fraction of workers is
// down at any instant; attach it to ParallelConfig.Fault.
var FailedFractionPlan = fault.FailedFractionPlan

// Observability types (see internal/obs): attach a MetricsRegistry to
// ParallelConfig (or WireOptions) and every driver records T_A/T_F/T_C,
// lease and transport telemetry. ParallelConfig.Events hears the
// virtual-time drivers' simulation trace, one SimTraceEvent at a time.
type (
	// MetricsRegistry collects counters, gauges and timing histograms;
	// nil disables telemetry at zero hot-path cost.
	MetricsRegistry = obs.Registry
	// SimTraceEvent is one DES trace event: a send, a receive, or the
	// start or end of a node's eval/comm/algo busy interval — the
	// stream the paper's Figure 1/2 timelines are drawn from.
	SimTraceEvent = des.TraceEvent
)

// Observability constructors and helpers.
var (
	// NewMetrics returns an empty metrics registry.
	NewMetrics = obs.NewRegistry
	// NewLogger is the shared leveled CLI logger (log/slog).
	NewLogger = obs.NewLogger
	// LogfAdapter adapts a slog.Logger to printf-style Logf callbacks.
	LogfAdapter = obs.Logf
)

// Distributed evaluation tracing (see internal/obs): attach a
// TraceCollector to ParallelConfig.Trace (or FederationConfig.Tracers)
// and every evaluation becomes one trace: the master records what it
// measures, and the collector assembles per-evaluation span trees
// whose children are the paper's model terms (queue wait, T_C
// send/recv, T_F, T_A). Traces are live
// only: borg -trace writes the Chrome export and prints the
// attribution when the run ends.
type (
	// TraceCollector assembles distributed evaluation traces.
	TraceCollector = obs.Collector
	// TraceCollectorConfig sets the collector's run id, sampling rate
	// and span budget.
	TraceCollectorConfig = obs.CollectorConfig
	// TraceForest is an assembled, deterministically ordered set of
	// trace trees.
	TraceForest = obs.Forest
	// TraceTermStats aggregates one model term across a forest.
	TraceTermStats = obs.TermStats
	// TraceAttribution is a forest's per-term critical-path breakdown
	// (the empirical Eq. 2 decomposition).
	TraceAttribution = obs.Attribution
)

var (
	// NewTraceCollector constructs a live trace collector.
	NewTraceCollector = obs.NewCollector
	// WriteChromeTraceForests renders one or more forests as a merged
	// Chrome trace_event file with cross-process flow arrows.
	WriteChromeTraceForests = obs.WriteChromeForests
)

// Live scalability advisor (see internal/advisor): attach a
// ScalingAdvisor to ParallelConfig.Advisor and the async drivers
// stream their timing telemetry through the paper's analytical model —
// predicted vs observed speedup/efficiency, processor bounds, model
// drift and per-worker straggler detection, served at /debug/scaling
// by the serving binaries (internal/httpd) and journaled as JSONL
// snapshots (borgview top renders either).
type (
	// ScalingAdvisor fits the analytical model to a live run.
	ScalingAdvisor = advisor.Advisor
	// AdvisorConfig tunes the advisor's thresholds and snapshots.
	AdvisorConfig = advisor.Config
	// AdvisorReport is one full scalability analysis (the
	// /debug/scaling response body and JSONL snapshot record).
	AdvisorReport = advisor.Report
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
// EvQuality points in the BMEL log, so replaying the log reconstructs
// the run's quality timeline bit for bit offline (borgview timeline
// -quality replays and renders one). Wire QualitySamplerConfig.OnSample
// to ScalingAdvisor.ObserveQuality for stall and restart-regression
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
)

var (
	// NewQualitySampler constructs a quality sampler; attach it via
	// ParallelConfig.Quality.
	NewQualitySampler = obs.NewQualitySampler
)

// Multi-master federation (see internal/federation): k island masters
// — each a full asynchronous master-slave instance over its own worker
// pool — exchange ε-archive members in a ring over TCP. The paper's
// Eq. 3 ceiling P_UB = T_F/(2·T_C + T_A) binds each island separately,
// so the federation's aggregate useful processor count approaches
// k·P_UB. borg -islands k runs one (RunIslands on the virtual cluster,
// RunFederation over TCP); borgview top -fed watches one.
type (
	// FederationConfig describes one TCP federation run.
	FederationConfig = federation.Config
	// MigrantLog is the per-island sidecar log of outgoing migrants
	// that, together with the BMEL log, makes a federated run
	// replayable.
	MigrantLog = federation.MigrantLog
	// IslandsConfig describes k islands on the virtual cluster.
	IslandsConfig = parallel.IslandsConfig
	// FederationScalingReport is the federated advisor roll-up's
	// response body (the federation-level /debug/scaling).
	FederationScalingReport = advisor.FederationReport
)

var (
	// RunFederation executes a multi-master federation over loopback or
	// LAN TCP.
	RunFederation = federation.Run
	// RunIslands executes k islands on one virtual cluster, on the
	// same migration protocol.
	RunIslands = parallel.RunIslands
	// NewMigrantLog returns an empty migrant sidecar log.
	NewMigrantLog = federation.NewMigrantLog
	// NewScalingFederation returns an empty federated advisor roll-up.
	NewScalingFederation = advisor.NewFederation
)

// Multi-tenant job service (see internal/jobs): a scheduler owns a
// shared borgd fleet and multiplexes many concurrent Borg runs over
// it — one master core per job, stride-scheduled fair sharing,
// per-job checkpoint streams that survive server restarts. cmd/borgsvc
// runs the service and serves its HTTP job API (internal/httpd) next
// to the /debug endpoints; borgq is its client.
type (
	// JobServiceConfig parameterizes the scheduler (fleet listener,
	// backpressure bounds, persistence directory).
	JobServiceConfig = jobs.Config
	// JobSpec is one job submission: problem, budget, epsilons, seed,
	// fair-share priority.
	JobSpec = jobs.Spec
	// JobStatus is a job's externally visible state.
	JobStatus = jobs.Status
)

// NewJobScheduler starts a job scheduler on its fleet listener.
var NewJobScheduler = jobs.New

// Model types.
type (
	// Times bundles mean T_F, T_A, T_C.
	Times = model.Times
	// SimConfig parameterizes the simulation model.
	SimConfig = model.SimConfig
)

// NewRand returns a deterministic random source seeded from seed, for
// use with a timing distribution's Sample.
var NewRand = rng.New

// Experiment harness types.
type (
	// Table2Config reproduces the paper's Table II.
	Table2Config = experiment.Table2Config
	// SpeedupConfig reproduces Figures 3–4.
	SpeedupConfig = experiment.SpeedupConfig
	// SurfaceConfig reproduces Figure 5.
	SurfaceConfig = experiment.SurfaceConfig
)

// Algorithm constructors.
var (
	// NewBorg constructs a Borg MOEA instance.
	NewBorg = core.New
	// UniformEpsilons broadcasts one ε across m objectives.
	UniformEpsilons = core.UniformEpsilons
)

// Problem constructors and resolution.
var (
	// NewDTLZ2 returns the m-objective DTLZ2 problem.
	NewDTLZ2 = problems.NewDTLZ2
	// NewUF11 returns the paper's 5-objective UF11 instance.
	NewUF11 = problems.NewUF11
	// IdealSphereHypervolume is the closed-form front hypervolume.
	IdealSphereHypervolume = problems.IdealSphereHypervolume
	// LookupProblem resolves a CLI-style problem name plus an
	// objective count ("DTLZ2" with m=5, "UF11", "ZDT3", ...).
	LookupProblem = problems.Lookup
)

// Protocol event log (see internal/master): attach a ProtocolLog to
// ParallelConfig.Protocol and any transport's run records the exact
// event sequence its master state machine consumed; the log replays
// off-line to the identical Result with ReplayAsync. A log whose
// Meta.Run names its spec replays from the file alone.
// ProtocolLog records a master run's protocol events for replay.
type ProtocolLog = master.Log

var (
	// NewProtocolLog returns an empty event log ready to attach to
	// ParallelConfig.Protocol.
	NewProtocolLog = master.NewLog
	// ReadProtocolLog deserializes a log written with ProtocolLog.WriteTo.
	ReadProtocolLog = master.ReadLog
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
	// RunAsyncDistributed executes the asynchronous master-slave
	// algorithm over real TCP: the master listens and borgd workers
	// dial in (see internal/wire).
	RunAsyncDistributed = parallel.RunAsyncDistributed
	// RunWorker runs one distributed worker until the master stops it
	// (the in-process equivalent of the borgd daemon).
	RunWorker = wire.RunWorker
)

// SaveArchive writes an archive as JSON.
var SaveArchive = core.SaveArchive

// Scalability models (the paper's equations).
var (
	// SerialTime is Eq. 1: T_S = N(T_F + T_A).
	SerialTime = model.SerialTime
	// AsyncTime is Eq. 2: T_P = N/(P−1)·(T_F + 2T_C + T_A).
	AsyncTime = model.AsyncTime
	// AsyncEfficiency derives from Eqs. 1–2.
	AsyncEfficiency = model.AsyncEfficiency
	// ProcessorUpperBound is Eq. 3: P_UB = T_F/(2T_C + T_A).
	ProcessorUpperBound = model.ProcessorUpperBound
	// ProcessorLowerBound is Eq. 4: P_LB > 2 + 2T_C/(T_F + T_A).
	ProcessorLowerBound = model.ProcessorLowerBound
	// RelativeError is Eq. 5.
	RelativeError = model.RelativeError
	// Simulate runs the discrete-event simulation model once;
	// SimulateMean averages replicates.
	Simulate     = model.Simulate
	SimulateMean = model.SimulateMean
)

// Quality metrics.
var (
	// Hypervolume is the exact WFG hypervolume.
	Hypervolume = metrics.Hypervolume
	// HypervolumeMC is the Monte-Carlo estimator.
	HypervolumeMC = metrics.HypervolumeMC
	// RefPointFor is the shared hypervolume reference-point convention
	// (see internal/metrics/refpoint.go).
	RefPointFor = metrics.RefPointFor
)

// DefaultHVSamples is the conventional Monte Carlo sample count.
const DefaultHVSamples = metrics.DefaultHVSamples

// Timing distributions.
var (
	// ConstantDist constructs a constant T_F/T_A/T_C distribution.
	ConstantDist = stats.NewConstant
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
	// CollectTimings times serial T_A brackets and fits distributions
	// and the core.Work prices to them.
	CollectTimings = experiment.CollectTimings
	// PlanHierarchy sizes master-slave islands with the simulation
	// model.
	PlanHierarchy = experiment.PlanHierarchy
	// Renderers for harness outputs.
	WriteTable2       = experiment.WriteTable2
	WriteTable2CSV    = experiment.WriteTable2CSV
	WriteSpeedup      = experiment.WriteSpeedup
	WriteSpeedupCSV   = experiment.WriteSpeedupCSV
	WriteSurface      = experiment.WriteSurface
	WriteSurfaceCSV   = experiment.WriteSurfaceCSV
	WriteTimingReport = experiment.WriteTimingReport
)
