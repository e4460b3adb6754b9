// Package stats provides the probability distributions and the
// distribution-fitting machinery the paper's simulation model depends
// on. The paper sampled timing data (T_F, T_A, T_C) on TACC Ranger and
// used R to fit candidate distributions by maximum likelihood,
// selecting the best by log-likelihood; Fit and SelectBest reproduce
// that workflow.
package stats

import (
	"fmt"
	"math"

	"borgmoea/internal/rng"
)

// Distribution is a univariate probability distribution over
// non-negative durations (seconds). Implementations must be usable
// from a single goroutine at a time.
type Distribution interface {
	// Sample draws one value using the supplied random source.
	Sample(r *rng.Source) float64
	// LogPDF returns the log of the density (or log probability mass
	// for degenerate distributions) at x. It returns -Inf outside the
	// support.
	LogPDF(x float64) float64
	// Mean returns the expected value.
	Mean() float64
	// Var returns the variance.
	Var() float64
	// Name returns a short identifier such as "gamma".
	Name() string
	// String returns a human-readable parameterization.
	String() string
}

// Constant is the degenerate distribution that always returns Value.
// It models the analytical-model assumption of fixed T_F, T_A, T_C.
type Constant struct{ Value float64 }

// NewConstant returns the degenerate distribution at v.
func NewConstant(v float64) Constant { return Constant{Value: v} }

func (c Constant) Sample(*rng.Source) float64 { return c.Value }

func (c Constant) LogPDF(x float64) float64 {
	if x == c.Value {
		return 0 // log(1): all mass at the point
	}
	return math.Inf(-1)
}

func (c Constant) Mean() float64  { return c.Value }
func (c Constant) Var() float64   { return 0 }
func (c Constant) Name() string   { return "constant" }
func (c Constant) String() string { return fmt.Sprintf("constant(%g)", c.Value) }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

func (u Uniform) Sample(r *rng.Source) float64 { return r.Range(u.Lo, u.Hi) }

func (u Uniform) LogPDF(x float64) float64 {
	if x < u.Lo || x >= u.Hi {
		return math.Inf(-1)
	}
	return -math.Log(u.Hi - u.Lo)
}

func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }
func (u Uniform) Var() float64  { d := u.Hi - u.Lo; return d * d / 12 }
func (u Uniform) Name() string  { return "uniform" }
func (u Uniform) String() string {
	return fmt.Sprintf("uniform(%g, %g)", u.Lo, u.Hi)
}

// Normal is the Gaussian distribution. Sampled values are not
// truncated, so a duration drawn from it can be negative.
type Normal struct{ Mu, Sigma float64 }

func (n Normal) Sample(r *rng.Source) float64 { return r.NormMS(n.Mu, n.Sigma) }

func (n Normal) LogPDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return -0.5*z*z - math.Log(n.Sigma) - 0.5*math.Log(2*math.Pi)
}

func (n Normal) Mean() float64  { return n.Mu }
func (n Normal) Var() float64   { return n.Sigma * n.Sigma }
func (n Normal) Name() string   { return "normal" }
func (n Normal) String() string { return fmt.Sprintf("normal(%g, %g)", n.Mu, n.Sigma) }

// LogNormal is the log-normal distribution: exp(Normal(Mu, Sigma)).
type LogNormal struct{ Mu, Sigma float64 }

func (l LogNormal) Sample(r *rng.Source) float64 {
	return math.Exp(r.NormMS(l.Mu, l.Sigma))
}

func (l LogNormal) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return -0.5*z*z - math.Log(x*l.Sigma) - 0.5*math.Log(2*math.Pi)
}

func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

func (l LogNormal) Var() float64 {
	s2 := l.Sigma * l.Sigma
	return (math.Exp(s2) - 1) * math.Exp(2*l.Mu+s2)
}

func (l LogNormal) Name() string { return "lognormal" }
func (l LogNormal) String() string {
	return fmt.Sprintf("lognormal(%g, %g)", l.Mu, l.Sigma)
}

// Exponential is the exponential distribution with the given Rate.
type Exponential struct{ Rate float64 }

// NewExponential returns an exponential distribution. It panics if
// rate <= 0.
func NewExponential(rate float64) Exponential {
	if rate <= 0 {
		panic("stats: NewExponential requires rate > 0")
	}
	return Exponential{Rate: rate}
}

func (e Exponential) Sample(r *rng.Source) float64 { return r.Exp(e.Rate) }

func (e Exponential) LogPDF(x float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	return math.Log(e.Rate) - e.Rate*x
}

func (e Exponential) Mean() float64  { return 1 / e.Rate }
func (e Exponential) Var() float64   { return 1 / (e.Rate * e.Rate) }
func (e Exponential) Name() string   { return "exponential" }
func (e Exponential) String() string { return fmt.Sprintf("exponential(%g)", e.Rate) }

// Gamma is the gamma distribution with the given Shape (k) and Scale
// (θ).
type Gamma struct{ Shape, Scale float64 }

// GammaFromMeanCV returns the gamma distribution with the given mean
// and coefficient of variation. This is the paper's controlled-delay
// shape: a strictly positive distribution with precisely dialed CV.
func GammaFromMeanCV(mean, cv float64) Gamma {
	if mean <= 0 || cv <= 0 {
		panic("stats: GammaFromMeanCV requires positive mean and cv")
	}
	shape := 1 / (cv * cv)
	return Gamma{Shape: shape, Scale: mean / shape}
}

func (g Gamma) Sample(r *rng.Source) float64 { return r.Gamma(g.Shape, g.Scale) }

func (g Gamma) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(g.Shape)
	return (g.Shape-1)*math.Log(x) - x/g.Scale - lg - g.Shape*math.Log(g.Scale)
}

func (g Gamma) Mean() float64 { return g.Shape * g.Scale }
func (g Gamma) Var() float64  { return g.Shape * g.Scale * g.Scale }
func (g Gamma) Name() string  { return "gamma" }
func (g Gamma) String() string {
	return fmt.Sprintf("gamma(shape=%g, scale=%g)", g.Shape, g.Scale)
}

// Weibull is the Weibull distribution with the given Shape (k) and
// Scale (λ).
type Weibull struct{ Shape, Scale float64 }

func (w Weibull) Sample(r *rng.Source) float64 {
	u := 1 - r.Float64() // in (0,1]
	return w.Scale * math.Pow(-math.Log(u), 1/w.Shape)
}

func (w Weibull) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	z := x / w.Scale
	return math.Log(w.Shape/w.Scale) + (w.Shape-1)*math.Log(z) - math.Pow(z, w.Shape)
}

func (w Weibull) Mean() float64 {
	g, _ := math.Lgamma(1 + 1/w.Shape)
	return w.Scale * math.Exp(g)
}

func (w Weibull) Var() float64 {
	g2, _ := math.Lgamma(1 + 2/w.Shape)
	g1, _ := math.Lgamma(1 + 1/w.Shape)
	return w.Scale * w.Scale * (math.Exp(g2) - math.Exp(2*g1))
}

func (w Weibull) Name() string { return "weibull" }
func (w Weibull) String() string {
	return fmt.Sprintf("weibull(shape=%g, scale=%g)", w.Shape, w.Scale)
}
