// Package jobs turns the one-shot distributed Borg master into a
// long-lived multi-tenant service: clients submit named problems with
// per-run configuration, a scheduler multiplexes every active run over
// one shared borgd fleet, and results stream back over HTTP (the job
// API in internal/httpd) while the runs are still going.
//
// The paper's scalability analysis motivates the design. A single
// asynchronous run saturates once T_F / (T_A + T_C) workers are busy —
// adding processors past the knee buys nothing for that run. A fleet
// sized for peak demand therefore spends most of its life past some
// run's knee; the only way to keep it busy is to run many searches at
// once. The scheduler does exactly that: one master.Core per job (the
// serial critical section stays per-run, as the paper requires),
// ScheduledOffspring policy so a worker finishing an evaluation parks
// until the fair-share scheduler speaks for it, and stride scheduling
// across jobs at per-evaluation granularity so no job starves and
// priorities mean something.
//
// Every scheduling decision lands in the job's own BMEL event log
// (EvReady/EvLeave are ordinary events), streamed to disk as it
// happens, so a killed server replays each job back to its exact
// pre-kill state and resumes it on whatever fleet redials in.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
)

// Submission limits. They bound hostile or fat-fingered requests, not
// legitimate experiments: the caps are orders of magnitude above the
// paper's largest runs.
const (
	// MaxSubmitBytes bounds a submission request body.
	MaxSubmitBytes = 1 << 16
	// MaxPriority bounds Spec.Priority (stride scheduling weight).
	MaxPriority = 16
	// MaxEvaluations bounds Spec.Evaluations.
	MaxEvaluations = 1_000_000_000
	// MaxPopulation bounds Spec.Population.
	MaxPopulation = 1_000_000
	// DefaultEpsilon is used when a spec names neither Epsilon nor
	// Epsilons.
	DefaultEpsilon = 0.01
)

// Spec is a job submission: which problem to optimize and how. The
// zero value of every optional field means "default".
type Spec struct {
	// Problem names a registry problem ("DTLZ2_5", "UF11", "ZDT1"...).
	// Families that need an objective count take it from Objectives
	// ("DTLZ2" + Objectives 5 ≡ "DTLZ2_5").
	Problem string `json:"problem"`
	// Objectives disambiguates problem families; 0 for problems whose
	// name already fixes the dimensions.
	Objectives int `json:"objectives,omitempty"`
	// Evaluations is the NFE budget (required).
	Evaluations uint64 `json:"evaluations"`
	// Epsilon is a uniform archive resolution applied to every
	// objective; Epsilons sets them per objective and wins when both
	// are given. Default DefaultEpsilon uniform.
	Epsilon  float64   `json:"epsilon,omitempty"`
	Epsilons []float64 `json:"epsilons,omitempty"`
	// Population is the initial population size (default 100).
	Population int `json:"population,omitempty"`
	// Seed seeds the run's random stream (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Priority is the job's fair-share weight, 1..MaxPriority
	// (default 1): a priority-4 job receives evaluation grants at 4x
	// the rate of a priority-1 job while both are runnable.
	Priority int `json:"priority,omitempty"`
	// QualityEvery opts the job into search-quality sampling: every
	// such number of accepted evaluations the scheduler snapshots the
	// job's hypervolume, ε-progress and operator adaptation, feeds its
	// advisor's stall detector, and reports the latest sample in the
	// job's Status. Sample points ride the job's BMEL log, so a
	// restored job replays its quality timeline too. 0 (default)
	// disables sampling.
	QualityEvery uint64 `json:"quality_every,omitempty"`
}

// Normalize validates the spec, fills defaults in place, and returns
// the resolved problem plus the algorithm config the spec implies.
// Hostile values — unknown problems, non-finite or non-positive
// epsilons, absurd budgets — come back as clean errors, never panics.
func (s *Spec) Normalize() (problems.Problem, core.Config, error) {
	var cfg core.Config
	if s.Problem == "" {
		return nil, cfg, errors.New("jobs: spec needs a problem name")
	}
	p, err := problems.Lookup(s.Problem, s.Objectives)
	if err != nil {
		return nil, cfg, fmt.Errorf("jobs: %w", err)
	}
	if s.Evaluations == 0 {
		return nil, cfg, errors.New("jobs: spec needs a positive evaluation budget")
	}
	if s.Evaluations > MaxEvaluations {
		return nil, cfg, fmt.Errorf("jobs: evaluation budget %d exceeds the %d cap", s.Evaluations, uint64(MaxEvaluations))
	}
	if s.Priority == 0 {
		s.Priority = 1
	}
	if s.Priority < 1 || s.Priority > MaxPriority {
		return nil, cfg, fmt.Errorf("jobs: priority %d outside 1..%d", s.Priority, MaxPriority)
	}
	if s.Population < 0 || s.Population > MaxPopulation {
		return nil, cfg, fmt.Errorf("jobs: population %d outside 0..%d", s.Population, MaxPopulation)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	eps := s.Epsilons
	if len(eps) == 0 {
		e := s.Epsilon
		if e == 0 {
			e = DefaultEpsilon
		}
		eps = core.UniformEpsilons(p.NumObjs(), e)
		s.Epsilons = eps
	}
	if len(eps) != p.NumObjs() {
		return nil, cfg, fmt.Errorf("jobs: %d epsilons for %d objectives", len(eps), p.NumObjs())
	}
	for _, e := range eps {
		// NaN fails e > 0 too, so this rejects every non-finite value.
		if !(e > 0) || math.IsInf(e, 1) {
			return nil, cfg, fmt.Errorf("jobs: epsilon %v is not a positive finite number", e)
		}
	}
	cfg = core.Config{
		Epsilons:              eps,
		InitialPopulationSize: s.Population,
		Seed:                  s.Seed,
	}
	if err := cfg.Normalize(); err != nil {
		return nil, cfg, fmt.Errorf("jobs: %w", err)
	}
	return p, cfg, nil
}

// DecodeSubmit parses one submission from r, rejecting unknown fields,
// bodies over MaxSubmitBytes, and trailing garbage. It only parses —
// callers still Normalize the result. This is the fuzzed entry point
// of the job API.
func DecodeSubmit(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxSubmitBytes))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("jobs: bad submission: %w", err)
	}
	if dec.More() {
		return nil, errors.New("jobs: trailing data after submission")
	}
	return &s, nil
}

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: accepted, waiting for an active-job slot.
	StateQueued State = "queued"
	// StateRunning: owns a master.Core; receiving fleet grants.
	StateRunning State = "running"
	// StateDone: budget reached; results final.
	StateDone State = "done"
	// StateCancelled: stopped by the client; partial results remain
	// fetchable.
	StateCancelled State = "cancelled"
	// StateFailed: the job cannot make progress (e.g. its checkpoint
	// would not replay); Error says why.
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Status is one job's externally visible state — what GET /jobs/{id}
// returns and what /jobs/{id}/watch streams.
type Status struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Problem  string `json:"problem"`
	Priority int    `json:"priority"`
	// Evaluations is the accepted NFE so far; Budget the target.
	Evaluations uint64 `json:"evaluations"`
	Budget      uint64 `json:"budget"`
	// ArchiveSize is the current ε-archive membership.
	ArchiveSize int `json:"archive_size"`
	// Workers is how many fleet workers are currently assigned to the
	// job; Outstanding its live leases; Pending its resubmission
	// backlog.
	Workers     int `json:"workers"`
	Outstanding int `json:"outstanding"`
	Pending     int `json:"pending"`
	// Protocol accounting, mirrored from master.Stats.
	Resubmissions uint64 `json:"resubmissions,omitempty"`
	Duplicates    uint64 `json:"duplicates,omitempty"`
	Leaves        uint64 `json:"leaves,omitempty"`
	Deaths        uint64 `json:"deaths,omitempty"`
	// SubmittedAt is RFC3339Nano wall time. The *Seconds fields are on
	// the scheduler's monotonic clock (which survives restarts — a
	// resumed job's times continue where the dead server's left off):
	// SubmittedSeconds when the job was accepted, FirstResultSeconds
	// when its first evaluation was accepted (0 until then),
	// FinishedSeconds when it reached a terminal state (0 until then).
	SubmittedAt        string  `json:"submitted_at"`
	SubmittedSeconds   float64 `json:"submitted_seconds"`
	FirstResultSeconds float64 `json:"first_result_seconds,omitempty"`
	FinishedSeconds    float64 `json:"finished_seconds,omitempty"`
	Error              string  `json:"error,omitempty"`
	// Advisor is the job's live scalability analysis — the same report
	// /debug/scaling serves — filled on single-job queries.
	Advisor *advisor.Report `json:"advisor,omitempty"`
	// Quality is the job's latest search-quality sample, present when
	// the spec opted in via QualityEvery and at least one sample has
	// been taken.
	Quality *obs.QualitySample `json:"quality,omitempty"`
}
