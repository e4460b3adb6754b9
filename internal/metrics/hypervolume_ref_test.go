package metrics

import (
	"fmt"
	"math"
	"sort"

	"borgmoea/internal/rng"
)

// The estimators as they stood before the pruned Monte-Carlo kernel
// and the WFG arena, kept verbatim as the oracles the differential
// tests and FuzzHypervolumeMC compare against bit for bit. The one
// edit is refStrictlyBelow's finiteness test — the non-finite-point
// fix, the only intended behaviour change.

// refNondominated returns the subset of set whose members are not
// dominated by any other member (duplicates are kept once).
func refNondominated(set [][]float64) [][]float64 {
	var out [][]float64
outer:
	for i, p := range set {
		for j, q := range set {
			if i == j {
				continue
			}
			if Dominates(q, p) {
				continue outer
			}
			if j < i && equal(q, p) {
				continue outer // drop duplicate, keep first
			}
		}
		out = append(out, p)
	}
	return out
}

func refStrictlyBelow(p, ref []float64) bool {
	for i := range p {
		if p[i] >= ref[i] || math.IsNaN(p[i]) || math.IsInf(p[i], 0) {
			return false
		}
	}
	return true
}

func refHypervolume(set [][]float64, ref []float64) float64 {
	m := len(ref)
	pts := make([][]float64, 0, len(set))
	for _, p := range set {
		if len(p) != m {
			panic(fmt.Sprintf("metrics: point dimension %d != reference dimension %d", len(p), m))
		}
		if refStrictlyBelow(p, ref) {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	pts = refNondominated(pts)
	// Sorting by the last objective (descending) improves limit-set
	// pruning substantially.
	sort.Slice(pts, func(i, j int) bool { return pts[i][m-1] > pts[j][m-1] })
	return refWFG(pts, ref)
}

// refWFG computes hypervolume of a mutually nondominated set.
func refWFG(pts [][]float64, ref []float64) float64 {
	total := 0.0
	for i := range pts {
		total += refExclhv(pts, i, ref)
	}
	return total
}

// refExclhv is the hypervolume dominated exclusively by pts[i]
// relative to the points after it.
func refExclhv(pts [][]float64, i int, ref []float64) float64 {
	v := refInclhv(pts[i], ref)
	limited := refLimitSet(pts, i)
	if len(limited) > 0 {
		v -= refWFG(refNondominated(limited), ref)
	}
	return v
}

// refInclhv is the hypervolume dominated by a single point.
func refInclhv(p, ref []float64) float64 {
	v := 1.0
	for i := range p {
		v *= ref[i] - p[i]
	}
	return v
}

// refLimitSet worsens each later point to the component-wise maximum
// with pts[i], restricting to the box dominated by pts[i].
func refLimitSet(pts [][]float64, i int) [][]float64 {
	out := make([][]float64, 0, len(pts)-i-1)
	for _, q := range pts[i+1:] {
		lim := make([]float64, len(q))
		for j := range q {
			if q[j] > pts[i][j] {
				lim[j] = q[j]
			} else {
				lim[j] = pts[i][j]
			}
		}
		out = append(out, lim)
	}
	return out
}

func refHypervolumeMC(set [][]float64, ref []float64, samples int, seed uint64, filter bool) float64 {
	m := len(ref)
	if samples <= 0 {
		panic("metrics: HypervolumeMC needs samples > 0")
	}
	pts := make([][]float64, 0, len(set))
	for _, p := range set {
		if len(p) != m {
			panic("metrics: dimension mismatch")
		}
		if refStrictlyBelow(p, ref) {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	if filter {
		pts = refNondominated(pts)
	}
	// Tight sampling box: [component-wise min, ref].
	lo := append([]float64(nil), pts[0]...)
	for _, p := range pts[1:] {
		for j := range lo {
			if p[j] < lo[j] {
				lo[j] = p[j]
			}
		}
	}
	vol := 1.0
	for j := range lo {
		vol *= ref[j] - lo[j]
	}
	if vol <= 0 {
		return 0
	}
	// Sort points by first objective so the dominance scan can often
	// stop early.
	sort.Slice(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] })
	r := rng.New(seed)
	x := make([]float64, m)
	hit := 0
	for s := 0; s < samples; s++ {
		for j := range x {
			x[j] = lo[j] + (ref[j]-lo[j])*r.Float64()
		}
		for _, p := range pts {
			if p[0] > x[0] {
				break // no later point can dominate x in objective 0
			}
			if refWeaklyDominates(p, x) {
				hit++
				break
			}
		}
	}
	return vol * float64(hit) / float64(samples)
}

func refWeaklyDominates(p, x []float64) bool {
	for j := range p {
		if p[j] > x[j] {
			return false
		}
	}
	return true
}
