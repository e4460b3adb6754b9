package advisor

import (
	"fmt"
	"math"
	"sort"
)

// Streaming estimators for the advisor: constant-memory substitutes
// for the batch statistics in internal/stats, so per-evaluation timings can be
// summarized during a run without retaining samples. None of them are
// safe for concurrent use on their own; the advisor serializes access
// behind its mutex.

// Welford accumulates a running mean and variance with Welford's
// online algorithm — numerically stable where a naive sum-of-squares
// catastrophically cancels on the paper's microsecond-scale T_C
// against second-scale T_F. The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Observe folds one value in.
func (w *Welford) Observe(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased (n−1) sample variance, matching
// stats.Summarize; 0 with fewer than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// CV returns the coefficient of variation (0 when the mean is 0).
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Stddev() / w.mean
}

// EWMA is an exponentially-weighted moving average with bias
// correction: early values are not dragged toward zero by the empty
// initial state, so a worker's decayed T_F is meaningful from its
// first few evaluations. Larger alpha forgets faster.
type EWMA struct {
	alpha float64
	n     uint64
	s     float64 // decayed sum
	w     float64 // decayed weight, converges to 1
}

// NewEWMA returns an estimator with the given decay factor
// (0 < alpha <= 1).
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("obs: invalid EWMA alpha %v", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one value in.
func (e *EWMA) Observe(x float64) {
	e.n++
	e.s = (1-e.alpha)*e.s + e.alpha*x
	e.w = (1-e.alpha)*e.w + e.alpha
}

// Count returns the number of observations.
func (e *EWMA) Count() uint64 { return e.n }

// Value returns the bias-corrected decayed mean (0 with no
// observations).
func (e *EWMA) Value() float64 {
	if e.w == 0 {
		return 0
	}
	return e.s / e.w
}

// P2Quantile estimates a single quantile online with the P² algorithm
// (Jain & Chlamtac, CACM 1985): five markers tracked with parabolic
// interpolation, O(1) memory and time per observation. Unlike
// Histogram.Quantile it needs no pre-chosen bucket layout, so it
// adapts to whatever scale the run's timings actually have.
type P2Quantile struct {
	p   float64
	n   uint64
	q   [5]float64 // marker heights
	pos [5]float64 // actual marker positions (1-based)
	des [5]float64 // desired marker positions
	inc [5]float64 // desired-position increments per observation
}

// NewP2Quantile returns an estimator for the q-quantile p in [0, 1].
func NewP2Quantile(p float64) *P2Quantile {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("obs: invalid P2Quantile p %v", p))
	}
	return &P2Quantile{
		p:   p,
		inc: [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

// Observe folds one value in.
func (e *P2Quantile) Observe(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
			}
			e.des = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}
	e.n++

	// Locate the cell k such that q[k] <= x < q[k+1], extending the
	// extreme markers when x falls outside them.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		k = 3
		for i := 1; i < 5; i++ {
			if x < e.q[i] {
				k = i - 1
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.des {
		e.des[i] += e.inc[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.des[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			if qn := e.parabolic(i, s); e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic marker update.
func (e *P2Quantile) parabolic(i int, s float64) float64 {
	n0, n1, n2 := e.pos[i-1], e.pos[i], e.pos[i+1]
	return e.q[i] + s/(n2-n0)*
		((n1-n0+s)*(e.q[i+1]-e.q[i])/(n2-n1)+
			(n2-n1-s)*(e.q[i]-e.q[i-1])/(n1-n0))
}

// linear is the fallback marker update when the parabola overshoots a
// neighbor.
func (e *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it interpolates the sorted sample directly (the same
// convention as stats.Quantile); with none it returns 0.
func (e *P2Quantile) Value() float64 {
	switch {
	case e.n == 0:
		return 0
	case e.n < 5:
		sorted := append([]float64(nil), e.q[:e.n]...)
		sort.Float64s(sorted)
		if len(sorted) == 1 {
			return sorted[0]
		}
		pos := e.p * float64(len(sorted)-1)
		lo := int(pos)
		if lo >= len(sorted)-1 {
			return sorted[len(sorted)-1]
		}
		frac := pos - float64(lo)
		return sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
	return e.q[2]
}
