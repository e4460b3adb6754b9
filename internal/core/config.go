package core

import (
	"fmt"

	"borgmoea/internal/operators"
)

// Config parameterizes the Borg MOEA. Zero values select the defaults
// from Hadka & Reed (2013) via Normalize.
type Config struct {
	// Epsilons are the per-objective ε-dominance archive resolutions.
	// Required: the archive geometry defines Borg's convergence and
	// diversity guarantees. A single value may be broadcast with
	// UniformEpsilons.
	Epsilons []float64
	// InitialPopulationSize is the starting (and minimum) population
	// size. Default 100.
	InitialPopulationSize int
	// SelectionRatio sets the tournament size as a fraction of the
	// population size (minimum 2). Default 0.02.
	SelectionRatio float64
	// Gamma is the target population-to-archive ratio maintained by
	// restarts. Default 4.
	Gamma float64
	// WindowSize is the number of evaluations between
	// stagnation/ratio checks. Default 200.
	WindowSize int
	// Operators is the adaptive ensemble. Default: the six Borg
	// operators (operators.BorgEnsemble).
	Operators []operators.Operator
	// Zeta is the smoothing constant in operator-probability updates
	// (probability ∝ archive contributions + Zeta). Default 1.
	Zeta float64
	// Seed seeds the algorithm's random stream.
	Seed uint64
}

// UniformEpsilons returns an m-vector of equal ε values.
func UniformEpsilons(m int, eps float64) []float64 {
	v := make([]float64, m)
	for i := range v {
		v[i] = eps
	}
	return v
}

// Normalize fills defaults and validates. It returns an error for
// irrecoverable settings (no epsilons, bad sizes).
func (c *Config) Normalize() error {
	if len(c.Epsilons) == 0 {
		return fmt.Errorf("core: Config.Epsilons is required")
	}
	for _, e := range c.Epsilons {
		if e <= 0 {
			return fmt.Errorf("core: epsilons must be positive, got %v", e)
		}
	}
	if c.InitialPopulationSize == 0 {
		c.InitialPopulationSize = 100
	}
	if c.InitialPopulationSize < 4 {
		return fmt.Errorf("core: initial population size %d too small", c.InitialPopulationSize)
	}
	if c.SelectionRatio == 0 {
		c.SelectionRatio = 0.02
	}
	if c.SelectionRatio < 0 || c.SelectionRatio > 1 {
		return fmt.Errorf("core: selection ratio %v outside (0, 1]", c.SelectionRatio)
	}
	if c.Gamma == 0 {
		c.Gamma = 4
	}
	if c.Gamma < 1 {
		return fmt.Errorf("core: gamma %v must be >= 1", c.Gamma)
	}
	if c.WindowSize == 0 {
		c.WindowSize = 200
	}
	if c.WindowSize < 1 {
		return fmt.Errorf("core: window size %d must be positive", c.WindowSize)
	}
	if len(c.Operators) == 0 {
		c.Operators = operators.BorgEnsemble()
	}
	if c.Zeta == 0 {
		c.Zeta = 1
	}
	if c.Zeta < 0 {
		return fmt.Errorf("core: zeta %v must be non-negative", c.Zeta)
	}
	return nil
}
