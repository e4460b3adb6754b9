package metrics

import (
	"math"
	"sort"

	"borgmoea/internal/rng"
)

// HypervolumeMC estimates hypervolume by Monte Carlo: the fraction of
// samples points uniform in the box [min(set), ref] that are dominated
// by the set, scaled by the box volume. A fixed seed gives
// reproducible estimates; the standard error is ≈ HV/√samples.
//
// The degenerate-front contract matches Hypervolume (empty or
// out-of-box sets yield 0, duplicates are fine, points with a NaN or
// infinite coordinate are dropped); samples <= 0 panics.
func HypervolumeMC(set [][]float64, ref []float64, samples int, seed uint64) float64 {
	return hypervolumeMC(set, ref, samples, seed, true)
}

// HypervolumeMCNondominated is HypervolumeMC for a set that is already
// mutually nondominated (an ε-archive front, say), skipping the O(n²)
// dominance filter. The estimate is identical either way — a dominated
// point covers a subset of its dominator's region and cannot extend
// the sampling box — so this is purely the hot-path variant; the
// quality sampler uses it on every sample.
func HypervolumeMCNondominated(set [][]float64, ref []float64, samples int, seed uint64) float64 {
	return hypervolumeMC(set, ref, samples, seed, false)
}

func hypervolumeMC(set [][]float64, ref []float64, samples int, seed uint64, filter bool) float64 {
	if samples <= 0 {
		panic("metrics: HypervolumeMC needs samples > 0")
	}
	if filter {
		set = nondominatedInPlace(inBox(set, ref))
	}
	k := newMCKernel(set, ref)
	if k == nil {
		return 0
	}
	vol := 1.0
	for j, l := range k.lo {
		vol *= ref[j] - l
	}
	if vol <= 0 {
		return 0
	}
	return vol * float64(k.hits(samples, seed)) / float64(samples)
}

// mcKernel answers the one question the estimator asks per sample —
// does any point of the set weakly dominate x? — without a linear pass,
// and with the linear pass's yes/no for every x, so the estimate is
// the linear scan's bit for bit. Two exact prunings stack:
//
//   - A lazy axis-aligned subdivision of the sampling box. A node's
//     candidates are the points p ≤ b (or a superset), b the upper
//     corner of its box [a, b]. If a candidate is ≤ a, it is ≤ every
//     x in the box: the node is dom and every sample in it a hit. If
//     there is no candidate, every point has a coordinate above b,
//     hence above x: the node is free and every sample a miss.
//     Otherwise it is a leaf, scanned per sample, and split at the
//     midpoint of its relatively widest side once splitAfter samples
//     have fallen in it.
//   - Packed signatures on the leaf scan, the construction of
//     core.Population: lane j is a nondecreasing bucket of objective
//     j, so p ≤ x implies no lane of sig(p) exceeds that of sig(x),
//     and a row is ruled out with two word operations; the float
//     compare runs only on survivors.
//
// Every test compares input coordinates (or a monotone function of
// one) exactly, never within a tolerance, so no decision can move.
type mcKernel struct {
	m    int
	ref  []float64
	rows []float64 // the in-box points, row-major, ascending in objective 0
	sigs []uint64  // sigs[i] packs row i

	// Every sample lies in [lo, hi]: lo is the component-wise minimum
	// of the points. Lane j buckets (v - lo[j]) * scale[j].
	lo, hi []float64
	scale  [sigLanes]float64

	nodes []mcNode
	idx   []int32 // candidate lists, each ascending (so also in objective 0)

	x, a, b []float64 // the sample; split's box
}

const (
	// sigLanes leading objectives get one byte each of a signature,
	// bucketed into sigBuckets (7 bits: the high bit of every byte is
	// the borrow guard of the lane-wise compare).
	sigLanes   = 8
	sigBuckets = 128
	sigHigh    = 0x8080808080808080

	// splitAfter is how many samples a leaf scans before it is split.
	// A split costs about one scan of the leaf (the candidate filter)
	// and saves part of every later one, so a small constant repays
	// it; it also bounds the tree at samples/splitAfter splits.
	splitAfter = 8
	// splitMin is the shortest candidate list worth splitting: below
	// it a scan costs less than the extra level of descent.
	splitMin = 64
	// sigMin is the shortest list whose scan packs the sample's
	// signature.
	sigMin = 8
	// The candidate-index slab holds idxBudget indices per point beyond
	// the root's list; once it is full, leaves stay leaves. Measured on
	// sphere fronts, 8 is the knee: 4 costs 1.6× the time at n = 2000,
	// 16 and up buy nothing.
	idxBudget = 8
)

type mcKind uint8

const (
	mcLeaf mcKind = iota
	mcInner
	mcDom
	mcFree
)

// mcNode is one box of the subdivision. The box itself is not stored:
// split re-derives it by walking down from the root.
type mcNode struct {
	mid    float64 // inner: samples with x[dim] <= mid go left
	dim    int32
	left   int32 // inner: the left child; the right one is left+1
	off, n int32 // leaf: its candidates are idx[off : off+n]
	visits uint8 // leaf: samples so far, saturating at splitAfter
	kind   mcKind
}

// newMCKernel indexes the points of set that lie in ref's box (nil if
// none does) for samples drawn as lo[j] + (ref[j]-lo[j])*u, u in
// [0, 1). The set is not modified.
func newMCKernel(set [][]float64, ref []float64) *mcKernel {
	m := len(ref)
	k := &mcKernel{m: m, ref: ref, rows: make([]float64, 0, len(set)*m)}
	for _, p := range set {
		if contributes(p, ref) {
			k.rows = append(k.rows, p...)
		}
	}
	if len(k.rows) == 0 {
		return nil
	}
	n := len(k.rows) / m
	// Ascending in objective 0, so that every candidate list is and a
	// scan can stop at the first row past x[0].
	sort.Sort(rowsByFirst{k.rows, m})

	vecs := make([]float64, 5*m)
	k.lo, k.hi, k.x, k.a, k.b = vecs[:m:m], vecs[m:2*m:2*m], vecs[2*m:3*m:3*m], vecs[3*m:4*m:4*m], vecs[4*m:]
	copy(k.lo, k.rows[:m])
	for i := m; i < len(k.rows); i += m {
		for j, v := range k.rows[i : i+m] {
			if v < k.lo[j] {
				k.lo[j] = v
			}
		}
	}
	for j, l := range k.lo {
		w := ref[j] - l
		// The largest coordinate a sample can take is its value at the
		// largest u, rounding being monotone — whichever way the
		// compiler evaluates lo + w*u (fused or not).
		const uMax = 1 - 0x1p-53
		k.hi[j] = math.Max(l+float64(w*uMax), math.FMA(w, uMax, l))
		if j < sigLanes {
			k.scale[j] = sigBuckets / w
		}
	}

	k.sigs = make([]uint64, n)
	for i := range k.sigs {
		k.sigs[i] = k.pointSig(k.rows[i*m : (i+1)*m])
	}
	k.idx = make([]int32, n, (1+idxBudget)*n)
	for i := range k.idx {
		k.idx[i] = int32(i)
	}
	root := mcNode{n: int32(n)}
	if k.anyBelow(k.idx, k.lo, -1) {
		root.kind = mcDom
	}
	k.nodes = append(make([]mcNode, 0, 32), root)
	return k
}

// rowsByFirst sorts flat rows of m coordinates by their first.
type rowsByFirst struct {
	rows []float64
	m    int
}

func (s rowsByFirst) Len() int           { return len(s.rows) / s.m }
func (s rowsByFirst) Less(i, j int) bool { return s.rows[i*s.m] < s.rows[j*s.m] }
func (s rowsByFirst) Swap(i, j int) {
	a, b := s.rows[i*s.m:(i+1)*s.m], s.rows[j*s.m:(j+1)*s.m]
	for t := range a {
		a[t], b[t] = b[t], a[t]
	}
}

// pointSig packs a point's buckets, rounding down: a lane the
// arithmetic cannot place (NaN, from a lane width that collapsed or
// overflowed) is 0, which rules nothing out.
func (k *mcKernel) pointSig(row []float64) uint64 {
	var sig uint64
	for j, v := range row[:min(len(row), sigLanes)] {
		if t := (v - k.lo[j]) * k.scale[j]; t >= sigBuckets-1 {
			sig |= (sigBuckets - 1) << (8 * j)
		} else if t > 0 {
			sig |= uint64(t) << (8 * j)
		}
	}
	return sig
}

// sampleSig packs a sample's buckets, rounding up (NaN is the top
// bucket), with the borrow guards set. No sample is below lo, so no
// bucket is negative.
func (k *mcKernel) sampleSig(x []float64) uint64 {
	sig := uint64(sigHigh)
	for j, v := range x[:min(len(x), sigLanes)] {
		b := uint64(sigBuckets - 1)
		if t := (v - k.lo[j]) * k.scale[j]; t < sigBuckets-1 {
			b = uint64(t)
		}
		sig |= b << (8 * j)
	}
	return sig
}

// hits draws the samples and counts those some point weakly dominates:
// no coordinate of the point above the sample's, the linear scan's own
// test.
func (k *mcKernel) hits(samples int, seed uint64) int {
	r := rng.New(seed)
	lo, ref, x := k.lo, k.ref, k.x
	hit := 0
	for s := 0; s < samples; s++ {
		for j := range x {
			x[j] = lo[j] + (ref[j]-lo[j])*r.Float64()
		}
		for ni := int32(0); ; {
			n := &k.nodes[ni]
			if n.kind == mcInner {
				right := int32(0)
				if x[n.dim] > n.mid {
					right = 1
				}
				ni = n.left + right
				continue
			}
			if n.kind == mcLeaf {
				if n.visits < splitAfter {
					if n.visits++; n.visits == splitAfter && k.split(ni) {
						continue // now inner
					}
				}
				if k.scan(k.idx[n.off : n.off+n.n]) {
					hit++
				}
			} else if n.kind == mcDom {
				hit++
			}
			break
		}
	}
	return hit
}

// scan is the leaf test of the sample over one candidate list.
func (k *mcKernel) scan(list []int32) bool {
	m, x := k.m, k.x
	// A short list goes through on the all-top signature, which rules
	// nothing out: packing the sample's costs as much as comparing a
	// few rows outright.
	sx := ^uint64(0)
	if len(list) >= sigMin {
		sx = k.sampleSig(x)
	}
	for _, i := range list {
		sp := k.sigs[i]
		if (sx-sp)&sigHigh != sigHigh {
			// Some lane of the row is above the sample's. If it is lane
			// 0, so is every later row's: the list ascends in it.
			if sp&0x7f > sx&0x7f {
				return false
			}
			continue
		}
		row := k.rows[int(i)*m : int(i)*m+m]
		if row[0] > x[0] {
			return false
		}
		if weaklyDominates(row, x) {
			return true
		}
	}
	return false
}

// split turns leaf ni, which the sample fell in, into an inner node
// over two children, or reports false if it cannot: the list is too
// short, there is no room, or no side is left to halve.
func (k *mcKernel) split(ni int32) bool {
	leaf := k.nodes[ni]
	parent := k.idx[leaf.off : leaf.off+leaf.n]
	if len(parent) < splitMin || len(k.idx)+len(parent) > cap(k.idx) {
		return false
	}
	// The leaf's box: the root's, narrowed along the sample's path.
	x, a, b := k.x, k.a, k.b
	copy(a, k.lo)
	copy(b, k.hi)
	for at := int32(0); at != ni; {
		n := &k.nodes[at]
		at = n.left
		if x[n.dim] > n.mid {
			a[n.dim] = n.mid
			at++
		} else {
			b[n.dim] = n.mid
		}
	}
	// Halve the side that is widest relative to the sampling box. A
	// side of non-finite width (a reference box too wide for a float64,
	// whose samples are +Inf or NaN there) is never chosen, so the
	// coordinate a sample is routed by is always an ordinary number.
	dim, widest := -1, 0.0
	for j := range a {
		if r := (b[j] - a[j]) / (k.hi[j] - k.lo[j]); r > widest && !math.IsInf(r, 1) {
			dim, widest = j, r
		}
	}
	if dim < 0 {
		return false
	}
	mid := a[dim] + (b[dim]-a[dim])/2
	if !(a[dim] < mid && mid < b[dim]) {
		return false
	}
	// Left child: the candidates at or below mid, as a new list. Right
	// child: the parent's list — its upper corner is the parent's.
	m, off := k.m, int32(len(k.idx))
	for _, i := range parent {
		if k.rows[int(i)*m+dim] <= mid {
			k.idx = append(k.idx, i)
		}
	}
	left := mcNode{off: off, n: int32(len(k.idx)) - off}
	if left.n == 0 {
		left.kind = mcFree
	}
	// The parent was not dom, so the left child is not either (same
	// lower corner, fewer candidates). The right child is if a
	// candidate is at or below its raised corner, and only one of the
	// left list can be.
	right := mcNode{off: leaf.off, n: leaf.n}
	a[dim] = mid
	if k.anyBelow(k.idx[off:], a, dim) {
		right.kind = mcDom
	}
	k.nodes[ni] = mcNode{kind: mcInner, dim: int32(dim), mid: mid, left: int32(len(k.nodes))}
	k.nodes = append(k.nodes, left, right)
	return true
}

// anyBelow reports whether some listed point is ≤ corner in every
// coordinate but skip (-1: none), which the caller vouches for.
func (k *mcKernel) anyBelow(list []int32, corner []float64, skip int) bool {
	m := k.m
outer:
	for _, i := range list {
		for j, v := range k.rows[int(i)*m : int(i)*m+m] {
			if v > corner[j] && j != skip {
				continue outer
			}
		}
		return true
	}
	return false
}

func weaklyDominates(p, x []float64) bool {
	for j := range p {
		if p[j] > x[j] {
			return false
		}
	}
	return true
}
