package master

import (
	"errors"
	"fmt"
	"math"

	"borgmoea/internal/core"
	"borgmoea/internal/problems"
)

// Spec limits. They bound hostile or fat-fingered submissions and log
// headers, not legitimate experiments: the caps are orders of magnitude
// above the paper's largest runs.
const (
	// MaxSpecBytes bounds a job submission body and a log's run header.
	MaxSpecBytes = 1 << 16
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

// Spec is one run: which problem to optimize and how. A job submission
// is a Spec, and so is the run a version-2 event log names in its
// header. The zero value of every optional field means "default".
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
	// QualityEvery opts the run into search-quality sampling: every
	// such number of accepted evaluations a sampler snapshots the
	// run's hypervolume, ε-progress and operator adaptation. Sample
	// points ride the BMEL log, so a replay regenerates the quality
	// timeline too. 0 (default) disables sampling.
	QualityEvery uint64 `json:"quality_every,omitempty"`
}

// Config returns the problem and algorithm configuration the spec
// names, read literally: nothing is defaulted or bounded, so a recorded
// spec rebuilds exactly its run. Normalize adds the submission checks.
func (s *Spec) Config() (problems.Problem, core.Config, error) {
	p, err := problems.Lookup(s.Problem, s.Objectives)
	if err != nil {
		return nil, core.Config{}, fmt.Errorf("spec: %w", err)
	}
	eps := s.Epsilons
	if len(eps) == 0 {
		eps = core.UniformEpsilons(p.NumObjs(), s.Epsilon)
	}
	return p, core.Config{Epsilons: eps, InitialPopulationSize: s.Population, Seed: s.Seed}, nil
}

// Normalize validates the spec, fills defaults in place, and returns
// the resolved problem plus the algorithm config the spec implies.
// Hostile values — unknown problems, non-finite or non-positive
// epsilons, absurd budgets — come back as clean errors, never panics.
func (s *Spec) Normalize() (problems.Problem, core.Config, error) {
	if s.Problem == "" {
		return nil, core.Config{}, errors.New("spec: needs a problem name")
	}
	if len(s.Epsilons) == 0 && s.Epsilon == 0 {
		s.Epsilon = DefaultEpsilon
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	p, cfg, err := s.Config()
	if err != nil {
		return nil, cfg, err
	}
	if s.Evaluations == 0 {
		return nil, cfg, errors.New("spec: needs a positive evaluation budget")
	}
	if s.Evaluations > MaxEvaluations {
		return nil, cfg, fmt.Errorf("spec: evaluation budget %d exceeds the %d cap", s.Evaluations, uint64(MaxEvaluations))
	}
	if s.Priority == 0 {
		s.Priority = 1
	}
	if s.Priority < 1 || s.Priority > MaxPriority {
		return nil, cfg, fmt.Errorf("spec: priority %d outside 1..%d", s.Priority, MaxPriority)
	}
	if s.Population < 0 || s.Population > MaxPopulation {
		return nil, cfg, fmt.Errorf("spec: population %d outside 0..%d", s.Population, MaxPopulation)
	}
	if len(cfg.Epsilons) != p.NumObjs() {
		return nil, cfg, fmt.Errorf("spec: %d epsilons for %d objectives", len(cfg.Epsilons), p.NumObjs())
	}
	for _, e := range cfg.Epsilons {
		// NaN fails e > 0 too, so this rejects every non-finite value.
		if !(e > 0) || math.IsInf(e, 1) {
			return nil, cfg, fmt.Errorf("spec: epsilon %v is not a positive finite number", e)
		}
	}
	if err := cfg.Normalize(); err != nil {
		return nil, cfg, fmt.Errorf("spec: %w", err)
	}
	return p, cfg, nil
}

// RunHeader is the document a version-2 BMEL header carries: the run's
// spec and, for a service job, when it was accepted (RFC3339Nano wall
// time; seconds on the scheduler's clock). Zero stamps are left out, so
// a recording without them stays byte-reproducible.
type RunHeader struct {
	Spec             *Spec   `json:"spec"`
	SubmittedAt      string  `json:"submitted_at,omitempty"`
	SubmittedSeconds float64 `json:"submitted_seconds,omitempty"`
}
