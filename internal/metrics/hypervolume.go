package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Hypervolume computes the exact hypervolume of the set relative to
// the reference point using the WFG algorithm (While, Bradstreet &
// Barone 2012). Points not strictly dominating the reference point
// contribute nothing. The input is not modified.
//
// Degenerate fronts are well-defined: an empty set, a set whose every
// point lies outside the reference box, or a set of non-finite points
// all yield 0; a single point yields its box volume; duplicates
// contribute no extra volume. A point with a NaN or infinite
// coordinate is dropped like one outside the box — it contributes
// nothing and does not disturb the rest of the set — so one diverged
// evaluation cannot turn the indicator into NaN or +Inf. Mismatched
// point dimensions panic.
//
// Complexity is exponential in the worst case but fast for the
// archive sizes produced by ε-dominance archives (hundreds of points,
// ≤ 10 objectives). For very large sets prefer HypervolumeMC.
func Hypervolume(set [][]float64, ref []float64) float64 {
	pts := nondominatedInPlace(inBox(set, ref))
	if len(pts) == 0 {
		return 0
	}
	// Sorting by the last objective (descending) improves limit-set
	// pruning substantially.
	m := len(ref)
	sort.Slice(pts, func(i, j int) bool { return pts[i][m-1] > pts[j][m-1] })
	w := wfgArena{ref: ref, levels: make([]wfgLevel, 0, len(pts))} // a level loses a point at least
	return w.hv(pts, 0)
}

// inBox returns, in a fresh slice, the points that contribute.
func inBox(set [][]float64, ref []float64) [][]float64 {
	pts := make([][]float64, 0, len(set))
	for _, p := range set {
		if contributes(p, ref) {
			pts = append(pts, p)
		}
	}
	return pts
}

// contributes reports whether p can add hypervolume under ref: every
// coordinate finite and strictly below ref's. The exact and the
// Monte-Carlo estimator share it, so they agree on which points count.
// A point of the wrong dimension panics.
func contributes(p, ref []float64) bool {
	if len(p) != len(ref) {
		panic(fmt.Sprintf("metrics: point dimension %d != reference dimension %d", len(p), len(ref)))
	}
	for i, v := range p {
		// NaN fails the first test, -Inf the second; +Inf is below no
		// reference.
		if !(v < ref[i]) || math.IsInf(v, -1) {
			return false
		}
	}
	return true
}

// wfgArena runs the WFG recursion without allocating per call: level
// d holds the limit set the d-th nested exclusive-hypervolume term is
// taken over, written into storage the level keeps, and is filtered in
// place. A level is built when the recursion first reaches its depth.
type wfgArena struct {
	ref    []float64
	levels []wfgLevel
}

type wfgLevel struct {
	pts [][]float64 // the level's current set: views into buf
	buf []float64
}

// hv is the hypervolume of the mutually nondominated pts, which live
// on level depth: the sum over i of what pts[i] dominates and the
// points after it do not.
func (w *wfgArena) hv(pts [][]float64, depth int) float64 {
	total := 0.0
	for i, p := range pts {
		v := inclhv(p, w.ref)
		if rest := pts[i+1:]; len(rest) > 0 {
			v -= w.hv(w.limit(p, rest, depth+1), depth+1)
		}
		total += v
	}
	return total
}

// inclhv is the hypervolume dominated by a single point.
func inclhv(p, ref []float64) float64 {
	v := 1.0
	for i := range p {
		v *= ref[i] - p[i]
	}
	return v
}

// limit writes onto level depth the limit set of rest under p — each
// point worsened to the component-wise maximum with p, which restricts
// it to the box p dominates — and returns its nondominated subset.
func (w *wfgArena) limit(p []float64, rest [][]float64, depth int) [][]float64 {
	for len(w.levels) <= depth {
		w.levels = append(w.levels, wfgLevel{})
	}
	lv, m := &w.levels[depth], len(p)
	if cap(lv.buf) < len(rest)*m {
		lv.buf = make([]float64, len(rest)*m)
		lv.pts = make([][]float64, 0, len(rest))
	}
	lv.pts = lv.pts[:0]
	for k, q := range rest {
		lim := lv.buf[k*m : (k+1)*m : (k+1)*m]
		for j := range q {
			if q[j] > p[j] {
				lim[j] = q[j]
			} else {
				lim[j] = p[j]
			}
		}
		lv.pts = append(lv.pts, lim)
	}
	return nondominatedInPlace(lv.pts)
}

// nondominatedInPlace is NondominatedFilter compacting set itself: the
// same survivors in the same order. Testing a point against the
// survivors before it and everything after it decides as testing it
// against the whole set does — whatever dominated a dropped point
// dominates all that the point did, and a duplicate's first copy is
// dropped only with every other copy.
func nondominatedInPlace(set [][]float64) [][]float64 {
	kept := 0
outer:
	for i, p := range set {
		for _, q := range set[:kept] {
			if Dominates(q, p) || equal(q, p) {
				continue outer
			}
		}
		for _, q := range set[i+1:] {
			if Dominates(q, p) {
				continue outer
			}
		}
		set[kept] = p
		kept++
	}
	return set[:kept]
}
