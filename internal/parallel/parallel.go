// Package parallel implements the paper's parallel Borg MOEA drivers:
// the asynchronous master-slave algorithm (the paper's subject), the
// synchronous generational master-slave baseline (Cantú-Paz's model),
// and a wall-clock goroutine executor used to cross-validate the
// virtual-time results.
//
// The virtual-time drivers execute the *real* Borg MOEA — actual
// offspring, archives and restarts — on the virtual cluster in
// internal/cluster. Function-evaluation cost is a configurable
// distribution T_F (the paper's controlled delays), communication cost
// T_C is charged as master busy time (matching the paper's model where
// saturation occurs at T_F/(2·T_C + T_A)), and the master's algorithm
// time T_A is either sampled from a distribution or measured from the
// actual CPU time of the Go implementation's Accept+Suggest critical
// section — the latter reproduces the paper's methodology of fitting
// distributions to measured timings.
package parallel

import (
	"fmt"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/fault"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// Message tags used by the master/worker protocol on the DES cluster:
// the canonical vocabulary from internal/master, as mailbox ints
// (internal/wire carries the same values in its frame headers).
const (
	tagEvaluate = int(master.TagEvaluate)
	tagResult   = int(master.TagResult)
	tagStop     = int(master.TagStop)
	tagHello    = int(master.TagHello)
)

// Config describes one parallel run.
type Config struct {
	// Problem is the optimization problem; workers evaluate it.
	Problem problems.Problem
	// Algorithm configures the Borg core run by the master.
	Algorithm core.Config
	// Processors is P: one master plus P−1 workers. Must be >= 2.
	Processors int
	// Evaluations is N, the total function-evaluation budget.
	Evaluations uint64
	// TF is the function-evaluation time distribution (required).
	// The paper's controlled delays are Gamma distributions with
	// coefficient of variation 0.1 (stats.GammaFromMeanCV).
	TF stats.Distribution
	// TC is the one-way communication cost charged to the master per
	// message. Default: constant 6 µs, the paper's measured value.
	TC stats.Distribution
	// TA is the master's per-result algorithm time. Nil measures the
	// actual CPU time of the core's Accept+Suggest critical section
	// and charges that, reproducing the paper's instrumentation.
	TA stats.Distribution
	// Seed seeds all random streams of the run.
	Seed uint64

	// CheckpointEvery invokes OnCheckpoint after every k completed
	// evaluations (0 disables). Used for hypervolume trajectories.
	CheckpointEvery uint64
	// OnCheckpoint receives the current virtual time and the live
	// Borg instance. The callback must not retain the Borg pointer's
	// mutable state beyond the call.
	OnCheckpoint func(virtualTime float64, b *core.Borg)

	// CaptureTimings records every T_A and T_F sample into the
	// result, for distribution fitting.
	CaptureTimings bool

	// StragglerFraction marks the given fraction of workers as
	// stragglers whose evaluation times are multiplied by
	// StragglerFactor — the failure-injection extension used to
	// quantify the paper's §VI-B claim about T_F variability.
	StragglerFraction float64
	// StragglerFactor multiplies straggler evaluation times
	// (default 1, i.e. no effect).
	StragglerFactor float64

	// Fault attaches a fault-injection plan (crash-stop,
	// crash-recover, transient hangs, message loss — see
	// internal/fault) to the virtual cluster. Rank 0 (the master) must
	// not be a target. A nil or empty plan leaves the run bit-for-bit
	// identical to a fault-free run. Virtual-time drivers only.
	Fault *fault.Plan
	// LeaseTimeout bounds how long the asynchronous master waits for a
	// dispatched evaluation before presuming it lost: the expired work
	// is cloned and resubmitted to a live worker, and the late
	// original (if it ever arrives) is discarded as a duplicate.
	// 0 disables lease expiry unless Fault is non-empty, in which case
	// it defaults to 10× the mean evaluation time (scaled by
	// StragglerFactor).
	LeaseTimeout float64
	// BarrierTimeout bounds the synchronous master's per-generation
	// gather, so one dead worker no longer stalls the generation
	// forever: workers that miss the barrier are presumed dead and
	// their offspring are re-scattered next generation. Defaults like
	// LeaseTimeout.
	BarrierTimeout float64
	// SimTimeLimit aborts the run at this virtual time (0 = no limit
	// when fault-free). With a fault plan attached a generous default
	// is applied so that pathological schedules (e.g. every worker
	// crash-stopped while a recurring fault process keeps generating
	// events) cannot run the simulation forever; a run that hits the
	// limit ends with Result.Completed == false.
	SimTimeLimit float64

	// Metrics, when set, receives the run's telemetry: counters
	// (evaluations, resubmissions, lease expiries, duplicates),
	// gauges (live workers) and timing histograms (T_A, T_F, T_C,
	// master queue wait). All drivers honor it; nil (obs.Disabled)
	// keeps the hot path free of telemetry work.
	Metrics *obs.Registry
	// Events, when set, journals the run's protocol events — on the
	// virtual-time drivers every simulation trace event (sends,
	// receives, and the start/end of eval/comm/algo busy intervals
	// per node), plus driver-level events (lease expiries, joins,
	// deaths) — for JSONL export, Chrome trace rendering (see
	// internal/obs) and Figure 1/2-style timelines. It adds
	// overhead; leave nil for experiments.
	Events *obs.Recorder
	// Protocol, when set, records the exact event stream the shared
	// master state machine consumed — the compact replay log. A
	// recorded log re-runs deterministically through ReplayAsync (any
	// transport, including TCP) and serializes with Log.WriteTo /
	// master.ReadLog. Honored by the async drivers (RunAsync,
	// RunAsyncRealtime, RunAsyncDistributed).
	Protocol *master.Log
	// Advisor, when set, receives the run's timing streams (T_A, T_F
	// per worker, T_C, queue waits) and acceptance events, fitting the
	// paper's analytical model live — predicted vs observed speedup,
	// processor bounds, drift and straggler detection (see
	// internal/advisor). Observation-only: it never steers the run.
	// Honored by the async drivers; nil disables at zero cost.
	Advisor *advisor.Advisor
	// Trace, when set, collects one distributed trace per evaluation:
	// the master mints span contexts at grant time, the drivers feed
	// the collector the paper's model terms (T_C send/recv, queue
	// wait, T_F, T_A) per item, and Collector.Forest assembles the
	// span trees (see internal/obs). The sidecar (Collector.TraceLog)
	// plus the Protocol log reconstruct the same forest offline via
	// obs.TracesFromLog. Honored by the async drivers; nil disables.
	Trace *obs.Collector
	// Quality, when set, samples the run's search health (incremental
	// hypervolume, ε-progress, operator adaptation — see
	// obs.QualitySampler) on the sampler's cadence. The driver
	// attaches it to the algorithm and routes each trigger through the
	// master as an EvQuality event, so with Protocol set the quality
	// timeline replays byte-identically offline (ReplayAsync re-feeds
	// the same sampler hooks). Honored by the async drivers; nil
	// disables at zero cost.
	Quality *obs.QualitySampler

	// spawn starts one virtual-time worker; normalize sets it to
	// (*worker).start. The differential tests put the goroutine
	// reference worker here.
	spawn func(*worker)
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Problem == nil {
		return fmt.Errorf("parallel: Problem is required")
	}
	if c.Processors < 2 {
		return fmt.Errorf("parallel: need at least 2 processors (1 master + 1 worker), got %d", c.Processors)
	}
	if c.Evaluations == 0 {
		return fmt.Errorf("parallel: Evaluations must be positive")
	}
	if c.TF == nil {
		return fmt.Errorf("parallel: TF distribution is required")
	}
	if c.TC == nil {
		c.TC = stats.NewConstant(6e-6) // the paper's measured Ranger value
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = 1
	}
	if c.spawn == nil {
		c.spawn = (*worker).start
	}
	if c.StragglerFraction < 0 || c.StragglerFraction > 1 {
		return fmt.Errorf("parallel: straggler fraction %v outside [0,1]", c.StragglerFraction)
	}
	if c.LeaseTimeout < 0 || c.BarrierTimeout < 0 || c.SimTimeLimit < 0 {
		return fmt.Errorf("parallel: negative timeout")
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if !c.Fault.Empty() {
		for i, r := range c.Fault.Rules {
			for _, rank := range r.Ranks {
				if rank == 0 {
					return fmt.Errorf("parallel: fault rule %d targets rank 0; the master cannot be a fault target", i)
				}
			}
		}
		// Defaults that make an attached plan survivable: leases and
		// barriers expire after ~10 (straggler-scaled) evaluations,
		// and the simulation cannot outlive a generous serial bound.
		horizon := 10 * c.TF.Mean() * c.StragglerFactor
		if c.LeaseTimeout == 0 {
			c.LeaseTimeout = horizon
		}
		if c.BarrierTimeout == 0 {
			c.BarrierTimeout = horizon
		}
		if c.SimTimeLimit == 0 {
			c.SimTimeLimit = 10*float64(c.Evaluations)*c.TF.Mean()*c.StragglerFactor +
				100*c.LeaseTimeout
		}
	}
	return nil
}

// Result summarizes a parallel run.
type Result struct {
	// ElapsedTime is T_P: the virtual time at which the N-th
	// evaluation was accepted by the master (wall-clock seconds for
	// the realtime executor).
	ElapsedTime float64
	// Evaluations actually completed (== the configured budget).
	Evaluations uint64
	// Processors is P.
	Processors int

	// MasterBusy is the master's total busy time (T_C and T_A
	// holds); MasterUtilization = MasterBusy / ElapsedTime.
	MasterBusy        float64
	MasterUtilization float64
	// MeanWorkerUtilization averages busy/elapsed across workers.
	MeanWorkerUtilization float64

	// MeanTA, MeanTF, MeanTC are the observed means of the timing
	// processes during this run.
	MeanTA, MeanTF, MeanTC float64
	// TASamples and TFSamples hold raw samples when CaptureTimings
	// was set.
	TASamples, TFSamples []float64

	// Final is the Borg instance at the end of the run (archive,
	// operator probabilities, restart counts).
	Final *core.Borg

	// Generations is the number of synchronization barriers
	// (synchronous driver only).
	Generations uint64

	// Completed reports whether the full evaluation budget was
	// reached. A run whose workers all died permanently (or that hit
	// SimTimeLimit) ends early with Evaluations below the budget.
	Completed bool

	// Fault-tolerance accounting. Resubmissions counts work items
	// re-enqueued after a presumed loss (an expired lease, a missed
	// barrier, or a worker re-registration implying its work died
	// with it); LostEvaluations counts those presumed losses;
	// DuplicateResults counts late results the master discarded
	// because the work had already been reissued and deduplicated.
	Resubmissions    uint64
	LostEvaluations  uint64
	DuplicateResults uint64
	// WorkerCrashes, WorkerRecoveries and HangsInjected mirror the
	// fault injector's statistics; MessagesLost counts every message
	// the cluster discarded (dead senders, dead receivers, lossy
	// links, crash-flushed inboxes).
	WorkerCrashes    uint64
	WorkerRecoveries uint64
	HangsInjected    uint64
	MessagesLost     uint64
}

// SerialTime estimates T_S = N·(T̄F + T̄A) (Eq. 1) from this run's
// observed means, the quantity speedup and efficiency are measured
// against.
func (r *Result) SerialTime() float64 {
	return float64(r.Evaluations) * (r.MeanTF + r.MeanTA)
}

// Speedup returns S_P = T_S / T_P using the run's own timing means.
func (r *Result) Speedup() float64 {
	if r.ElapsedTime == 0 {
		return 0
	}
	return r.SerialTime() / r.ElapsedTime
}

// Efficiency returns E_P = T_S / (P·T_P).
func (r *Result) Efficiency() float64 {
	if r.ElapsedTime == 0 || r.Processors == 0 {
		return 0
	}
	return r.SerialTime() / (float64(r.Processors) * r.ElapsedTime)
}

// taMeter measures or samples the master's algorithm time.
type taMeter struct {
	dist    stats.Distribution
	rng     *rng.Source
	capture bool
	samples []float64
	sum     float64
	n       uint64
	hist    *obs.Histogram   // optional telemetry sink (nil-safe)
	adv     *advisor.Advisor // optional advisor feed (nil-safe)
	start   time.Time        // the open section's start (measured mode)
}

// enter opens a master critical section and leave closes it, returning
// the T_A charge: sampled from the distribution when set, otherwise the
// wall-clock time since enter. They are the hooks the drivers hang on a
// master.Bracket; sections do not nest.
func (m *taMeter) enter() {
	if m.dist == nil {
		m.start = time.Now()
	}
}

func (m *taMeter) leave() float64 {
	var ta float64
	if m.dist != nil {
		ta = m.dist.Sample(m.rng)
	} else {
		ta = time.Since(m.start).Seconds()
	}
	m.sum += ta
	m.n++
	if m.capture {
		m.samples = append(m.samples, ta)
	}
	m.hist.Observe(ta)
	m.adv.ObserveTA(ta)
	return ta
}

func (m *taMeter) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}
