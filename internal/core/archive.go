package core

import "math"

// Archive is the ε-dominance archive of Laumanns et al. (2002) as used
// by the Borg MOEA. Objective space is partitioned into ε-boxes; the
// archive keeps at most one solution per nondominated box, which
// bounds its size while guaranteeing convergence + diversity. The
// archive additionally tracks ε-progress (the count of additions that
// opened a previously unoccupied box — Borg's stagnation signal) and
// per-operator contribution counts (the signal for operator
// adaptation).
//
// Add is the master's T_A hot path, so the box set is indexed rather
// than scanned: a grid hash keyed on the ε-box coordinates resolves
// same-box duels in O(1), a cached per-box coordinate sum tells the
// cross-box dominance sweep which direction each member could dominate
// in, and a packed lane signature per box rules most members out of
// that direction with one word operation before any coordinate is
// compared. All working storage is reused across calls,
// so Add performs no heap allocations in steady state. Observable
// behavior — acceptance decisions, member ordering (swap-remove),
// ε-progress, operator credits — is byte-identical to the original
// linear-scan implementation; archive_ref_test.go pins that with a
// differential harness against a copy of the old code.
type Archive struct {
	epsilons []float64
	members  []*Solution

	// The ε-box index. boxData holds every member's box vector in one
	// flat slice (stride len(epsilons)): boxData[i*m:(i+1)*m] belongs
	// to members[i]. sums[i] caches the float64 sum of member i's box
	// coordinates: if box x ε-dominates box y then x ≤ y coordinatewise
	// with one strict, so sum(x) <= sum(y) even after float rounding
	// (conversion and addition are monotone) — one compare prunes most
	// of the dominance sweep. grid maps a box to its member index for
	// O(1) same-box lookups; it is nil when the objective count exceeds
	// gridDims, in which case the sum filter locates same-box members.
	// sigs[i] packs member i's first sigLanes box coordinates, each
	// clamped to [0, sigBuckets), one byte per lane: clamping is
	// monotone, so box x ≤ box y implies lanesLE(sigs[x], sigs[y]) —
	// an exact prefilter for the coordinatewise dominance test.
	boxData []int64
	sums    []float64
	sigs    []uint64
	grid    map[gridKey]int

	scratch []int64 // candidate's box vector, reused across Add calls
	marks   []bool  // per-member removal marks, parallel to members

	// infeasible is true while members holds only least-violating
	// placeholders (before the first feasible solution arrives).
	infeasible bool

	improvements uint64 // ε-progress counter
	numOps       int
	opCounts     []int // archive members credited to each operator
}

// gridDims bounds the objective count for which the grid hash is kept;
// a [gridDims]int64 array key avoids per-lookup allocations. Beyond it
// the archive falls back to the sum-filtered scan.
const gridDims = 8

type gridKey [gridDims]int64

func makeKey(box []int64) gridKey {
	var k gridKey
	copy(k[:], box)
	return k
}

// NewArchive creates an archive with the given per-objective ε values
// and numOps operator slots for contribution accounting. It panics if
// any ε is non-positive.
func NewArchive(epsilons []float64, numOps int) *Archive {
	if len(epsilons) == 0 {
		panic("core: archive needs at least one epsilon")
	}
	for _, e := range epsilons {
		if e <= 0 {
			panic("core: archive epsilons must be positive")
		}
	}
	a := &Archive{
		epsilons: append([]float64(nil), epsilons...),
		scratch:  make([]int64, len(epsilons)),
		numOps:   numOps,
		opCounts: make([]int, numOps),
	}
	if len(epsilons) <= gridDims {
		a.grid = make(map[gridKey]int)
	}
	return a
}

// Epsilons returns the archive's ε vector (not a copy; do not modify).
func (a *Archive) Epsilons() []float64 { return a.epsilons }

// Size returns the number of archived solutions.
func (a *Archive) Size() int { return len(a.members) }

// Members returns the archived solutions (the live slice; callers must
// not modify it).
func (a *Archive) Members() []*Solution { return a.members }

// Improvements returns the cumulative ε-progress count.
func (a *Archive) Improvements() uint64 { return a.improvements }

// OperatorCounts returns the number of current members credited to
// each operator (the live slice; callers must not modify it).
func (a *Archive) OperatorCounts() []int { return a.opCounts }

// box computes the ε-box index vector of a solution into fresh
// storage (cold paths and tests; Add uses boxInto).
func (a *Archive) box(s *Solution) []int64 {
	b := make([]int64, len(s.Objs))
	a.boxInto(s, b)
	return b
}

// boxInto fills dst with the solution's ε-box index vector and returns
// the two dominance prefilter keys: the float64 sum of its coordinates
// and its lane signature.
func (a *Archive) boxInto(s *Solution, dst []int64) (sum float64, sig uint64) {
	for i, f := range s.Objs {
		b := int64(math.Floor(f / a.epsilons[i]))
		dst[i] = b
		sum += float64(b)
		if i < sigLanes {
			sig |= uint64(min(max(b, 0), sigBuckets-1)) << (8 * i)
		}
	}
	return sum, sig
}

// boxAt returns member i's box vector (a view into boxData).
func (a *Archive) boxAt(i int) []int64 {
	m := len(a.epsilons)
	return a.boxData[i*m : (i+1)*m]
}

// boxCompare performs Pareto comparison on box indices: -1 if x
// dominates y, +1 if y dominates x, 0 if equal or nondominated.
func boxCompare(x, y []int64) int {
	xBetter, yBetter := false, false
	for i := range x {
		switch {
		case x[i] < y[i]:
			xBetter = true
		case x[i] > y[i]:
			yBetter = true
		}
	}
	switch {
	case xBetter && !yBetter:
		return -1
	case yBetter && !xBetter:
		return 1
	default:
		return 0
	}
}

// boxDominates reports whether box x ε-dominates box y: no worse in
// any coordinate and strictly better in at least one. Unlike
// boxCompare it can short-circuit on the first worse coordinate.
func boxDominates(x, y []int64) bool {
	better := false
	for i := range x {
		switch {
		case x[i] > y[i]:
			return false
		case x[i] < y[i]:
			better = true
		}
	}
	return better
}

func boxEqual(x, y []int64) bool {
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// cornerDistance is the squared ε-normalized distance from the
// solution to the lower corner of its box, used to break same-box
// ties.
func (a *Archive) cornerDistance(s *Solution, box []int64) float64 {
	d := 0.0
	for i, f := range s.Objs {
		z := f/a.epsilons[i] - float64(box[i])
		d += z * z
	}
	return d
}

// lookupBox returns the index of the member occupying the given box,
// if any. With the grid hash this is a single map probe; in the
// high-dimensional fallback, only members whose cached sum matches are
// compared coordinatewise (same box ⇒ same sum).
func (a *Archive) lookupBox(box []int64, sum float64) (int, bool) {
	if a.grid != nil {
		i, ok := a.grid[makeKey(box)]
		return i, ok
	}
	for i, si := range a.sums {
		if si == sum && boxEqual(a.boxAt(i), box) {
			return i, true
		}
	}
	return -1, false
}

// Add offers an evaluated solution to the archive. It returns true if
// the solution was accepted (archived), false if it was ε-dominated.
// Accepted solutions that open a previously unoccupied, nondominated
// box count as ε-progress. Infeasible solutions are rejected whenever
// the archive holds any feasible member (and compete by violation
// otherwise).
func (a *Archive) Add(s *Solution) bool {
	if !s.Evaluated() {
		panic("core: archiving an unevaluated solution")
	}
	if v := s.Violation(); v > 0 {
		return a.addInfeasible(s, v)
	}
	// A feasible candidate flushes any infeasible placeholders.
	a.dropInfeasible()

	sum, sig := a.boxInto(s, a.scratch)

	// In-box duel. The archive's boxes are unique and mutually
	// nondominated, so a same-box incumbent rules out any cross-box
	// domination in either direction (it would contradict the
	// incumbent's nondominance by transitivity): the duel alone
	// decides the outcome.
	if j, ok := a.lookupBox(a.scratch, sum); ok {
		incumbent := a.members[j]
		switch Compare(s, incumbent) {
		case 1:
			return false
		case 0:
			if !(a.cornerDistance(s, a.scratch) < a.cornerDistance(incumbent, a.boxAt(j))) {
				return false
			}
		}
		a.removeAt(j)
		a.appendMember(s, sum, sig)
		// Same-box replacement is not ε-progress.
		return true
	}

	// Cross-box sweep, sum-pruned: a dominating box's coordinate sum
	// cannot exceed the dominated box's, so each member needs exactly
	// one dominance test — against the candidate when si <= sum (can
	// the member reject it?), by the candidate when si >= sum (is the
	// member displaced?). The two directions are mutually exclusive
	// across the whole archive (a member dominating the candidate
	// dominating another member would contradict the members' own
	// nondominance by transitivity), so a rejection can only occur
	// with no removal marks set: returning early never leaves state
	// behind. Before a test reads the member's box, the lane signatures
	// must allow it; the coordinate loops are hand-inlined.
	dirty := false
	cand := a.scratch
	m := len(a.epsilons)
	data := a.boxData
	sigs := a.sigs
sweep:
	for i, si := range a.sums {
		switch {
		case si < sum:
			// Only the member can dominate the candidate.
			if !lanesLE(sigs[i], sig) {
				continue
			}
			box := data[i*m : i*m+m : i*m+m]
			better := false
			for j, c := range cand {
				if b := box[j]; b > c {
					continue sweep
				} else if b < c {
					better = true
				}
			}
			if better {
				return false // an existing box ε-dominates the candidate
			}
		case si > sum:
			// Only the candidate can dominate the member.
			if !lanesLE(sig, sigs[i]) {
				continue
			}
			box := data[i*m : i*m+m : i*m+m]
			better := false
			for j, c := range cand {
				if b := box[j]; c > b {
					continue sweep
				} else if c < b {
					better = true
				}
			}
			if better {
				a.marks[i] = true
				dirty = true
			}
		default:
			// Equal sums (rare): either direction is still possible,
			// so run both full tests.
			box := data[i*m : i*m+m : i*m+m]
			if boxDominates(box, cand) {
				return false
			}
			if boxDominates(cand, box) {
				a.marks[i] = true
				dirty = true
			}
		}
	}
	if dirty {
		// Replay the removals in the seed's ascending swap-remove
		// order so the surviving members land in identical slots
		// (member order is observable: SaveArchive bytes, federation
		// emigrant selection).
		for i := 0; i < len(a.members); {
			if a.marks[i] {
				a.removeAt(i)
			} else {
				i++
			}
		}
	}
	a.appendMember(s, sum, sig)
	// New box opened (possibly displacing dominated boxes): ε-progress
	// in Borg's sense.
	a.improvements++
	return true
}

// addInfeasible keeps at most one least-violating solution when the
// archive has no feasible members yet.
func (a *Archive) addInfeasible(s *Solution, v float64) bool {
	if len(a.members) == 0 {
		a.infeasible = true
		sum, sig := a.boxInto(s, a.scratch)
		a.appendMember(s, sum, sig)
		return true
	}
	if !a.infeasible {
		return false // feasible members exist; reject infeasible
	}
	if v < a.members[0].Violation() {
		a.removeAt(0)
		sum, sig := a.boxInto(s, a.scratch)
		a.appendMember(s, sum, sig)
		return true
	}
	return false
}

// dropInfeasible removes infeasible placeholders (only ever present
// before the first feasible solution arrives).
func (a *Archive) dropInfeasible() {
	if !a.infeasible {
		return
	}
	for i := 0; i < len(a.members); {
		if a.members[i].Violation() > 0 {
			a.removeAt(i)
		} else {
			i++
		}
	}
	a.infeasible = false
}

// appendMember appends s, whose box vector is in a.scratch and whose
// box-coordinate sum and lane signature are sum and sig, as the last
// member.
func (a *Archive) appendMember(s *Solution, sum float64, sig uint64) {
	a.members = append(a.members, s)
	a.boxData = append(a.boxData, a.scratch...)
	a.sums = append(a.sums, sum)
	a.sigs = append(a.sigs, sig)
	a.marks = append(a.marks, false)
	if a.grid != nil {
		a.grid[makeKey(a.scratch)] = len(a.members) - 1
	}
	a.credit(s, +1)
}

// removeAt removes member i by swapping the last member into its slot
// (the seed's ordering artifact, preserved because member order is
// observable) and keeps every parallel structure — boxData, sums,
// sigs, marks, grid — consistent.
func (a *Archive) removeAt(i int) {
	a.credit(a.members[i], -1)
	m := len(a.epsilons)
	last := len(a.members) - 1
	if a.grid != nil {
		delete(a.grid, makeKey(a.boxAt(i)))
	}
	if i != last {
		a.members[i] = a.members[last]
		copy(a.boxData[i*m:(i+1)*m], a.boxData[last*m:(last+1)*m])
		a.sums[i] = a.sums[last]
		a.sigs[i] = a.sigs[last]
		a.marks[i] = a.marks[last]
		if a.grid != nil {
			a.grid[makeKey(a.boxAt(i))] = i
		}
	}
	a.members[last] = nil
	a.members = a.members[:last]
	a.boxData = a.boxData[:last*m]
	a.sums = a.sums[:last]
	a.sigs = a.sigs[:last]
	a.marks = a.marks[:last]
}

func (a *Archive) credit(s *Solution, delta int) {
	if s.Operator >= 0 && s.Operator < a.numOps {
		a.opCounts[s.Operator] += delta
	}
}

// Objectives returns a copy of the members' objective vectors, ready
// for the metrics package.
func (a *Archive) Objectives() [][]float64 {
	out := make([][]float64, len(a.members))
	for i, m := range a.members {
		out[i] = append([]float64(nil), m.Objs...)
	}
	return out
}
