package core

import (
	"fmt"
	"math"

	"borgmoea/internal/rng"
)

const (
	// sigLanes is how many leading objectives a signature covers, one
	// byte each; sigBuckets is the bucket count per lane (7 bits, so
	// the high bit of every byte stays free for the lane-wise compare).
	sigLanes   = 8
	sigBuckets = 128
	sigHigh    = 0x8080808080808080
	// plainSig marks a member no signature can describe (infeasible, or
	// a NaN objective). It is not a valid signature: those have every
	// high bit clear.
	plainSig = ^uint64(0)
)

// lanesLE reports whether every lane of signature a is <= the same
// lane of b: with 7-bit lanes, (b|sigHigh)-a borrows out of no byte,
// and a byte's high bit survives exactly when its lane of b is at least
// a's. Signatures are monotone in what they pack — the population's
// objective buckets, the archive's ε-box indices — so "x dominates y"
// implies lanesLE(sig(x), sig(y)) and one word operation rules most
// candidate pairs out before any coordinate is compared.
func lanesLE(a, b uint64) bool { return ((b|sigHigh)-a)&sigHigh == sigHigh }

// Population is Borg's fixed-capacity working population with
// tournament selection and the steady-state replacement rule.
//
// Beside the members it keeps a mirror the dominance scans stream
// instead of chasing members[i] → Solution → Objs: the objective
// vectors copied row-major into one slice, and one packed signature
// per member. Lane j of a signature is a monotone bucket of objective
// j, so "a dominates b" implies every lane of sig(a) <= that of sig(b);
// a scan rules a row out with two word operations and runs the float
// comparison only on the rows that survive. The pruning is exact — it
// changes no decision, see DESIGN.md §14 — but it cannot describe
// constraint violations or NaN, so a call that meets either uses
// Compare on the members directly. A member's Objs and Constrs must
// not change while it is in the population.
type Population struct {
	members  []*Solution
	capacity int

	nobj  int       // objectives per member, fixed by the first one in
	objs  []float64 // row i is a copy of members[i].Objs
	sigs  []uint64  // signature of row i, or plainSig
	plain int       // members carrying plainSig

	// Lane j buckets f as (f - lo[j]) * scale[j], clamped to
	// [0, sigBuckets). stale counts the rows written since the bounds
	// were last derived from the members.
	lo, scale [sigLanes]float64
	stale     int

	dominated []int // Add's scratch
}

// NewPopulation returns an empty population with the given capacity.
// It panics if capacity < 1.
func NewPopulation(capacity int) *Population {
	if capacity < 1 {
		panic("core: population capacity must be >= 1")
	}
	return &Population{capacity: capacity}
}

// Size returns the current member count.
func (p *Population) Size() int { return len(p.members) }

// Capacity returns the population's capacity.
func (p *Population) Capacity() int { return p.capacity }

// SetCapacity resizes the population capacity (used by restarts). If
// the population currently exceeds the new capacity, random members
// are evicted.
func (p *Population) SetCapacity(capacity int, r *rng.Source) {
	if capacity < 1 {
		panic("core: population capacity must be >= 1")
	}
	p.capacity = capacity
	for len(p.members) > capacity {
		p.removeAt(r.Intn(len(p.members)))
	}
}

// Clear empties the population (capacity unchanged) and drops its
// references to the former members.
func (p *Population) Clear() {
	clear(p.members)
	p.members = p.members[:0]
	p.objs = p.objs[:0]
	p.sigs = p.sigs[:0]
	p.plain = 0
}

// Members returns the live member slice (callers must not modify it).
func (p *Population) Members() []*Solution { return p.members }

// Add inserts an evaluated solution using Borg's steady-state rule:
// below capacity it is simply appended; at capacity the solution is
// compared against the population — if any member dominates it, it is
// rejected; if it dominates one or more members it replaces one of
// those at random; otherwise it replaces a random member. Reports
// whether the solution entered the population. It panics if the
// solution's objective count differs from the members'.
func (p *Population) Add(s *Solution, r *rng.Source) bool {
	if !s.Evaluated() {
		panic("core: adding an unevaluated solution to the population")
	}
	if len(p.members) == 0 {
		p.nobj = len(s.Objs)
	} else if len(s.Objs) != p.nobj {
		panic(fmt.Sprintf("core: adding a solution with %d objectives to a population of %d-objective members",
			len(s.Objs), p.nobj))
	}
	if len(p.members) < p.capacity {
		p.set(len(p.members), s, p.signature(s))
		return true
	}
	if p.stale >= len(p.members) {
		p.rebucket()
	}
	sig := p.signature(s)
	p.dominated = p.dominated[:0]
	if sig == plainSig || p.plain > 0 {
		for i, m := range p.members {
			switch Compare(s, m) {
			case 1:
				return false // a member dominates the offspring
			case -1:
				p.dominated = append(p.dominated, i)
			}
		}
	} else {
		n := p.nobj
		for i, ms := range p.sigs {
			// The member can dominate s only if no lane of ms exceeds
			// sig's, and s the member only the other way round.
			if !lanesLE(ms, sig) && !lanesLE(sig, ms) {
				continue
			}
			switch compareObjs(s.Objs, p.objs[i*n:(i+1)*n]) {
			case 1:
				return false
			case -1:
				p.dominated = append(p.dominated, i)
			}
		}
	}
	var victim int
	if len(p.dominated) > 0 {
		victim = p.dominated[r.Intn(len(p.dominated))]
	} else {
		victim = r.Intn(len(p.members))
	}
	p.set(victim, s, sig)
	return true
}

// Tournament selects one member via size-k tournament: k members are
// drawn uniformly (with replacement across draws) and the
// dominance-best is returned; nondominated ties keep the incumbent,
// which is itself a uniform draw. It panics on an empty population.
func (p *Population) Tournament(k int, r *rng.Source) *Solution {
	if len(p.members) == 0 {
		panic("core: tournament on empty population")
	}
	best := r.Intn(len(p.members))
	if p.plain > 0 {
		for i := 1; i < k; i++ {
			c := r.Intn(len(p.members))
			if Compare(p.members[c], p.members[best]) == -1 {
				best = c
			}
		}
		return p.members[best]
	}
	n := p.nobj
	bs := p.sigs[best]
	for i := 1; i < k; i++ {
		c := r.Intn(len(p.sigs))
		cs := p.sigs[c]
		if !lanesLE(cs, bs) {
			continue // a lane of the challenger exceeds the incumbent's
		}
		if compareObjs(p.objs[c*n:(c+1)*n], p.objs[best*n:(best+1)*n]) == -1 {
			best, bs = c, cs
		}
	}
	return p.members[best]
}

// Random returns a uniformly random member. It panics on an empty
// population.
func (p *Population) Random(r *rng.Source) *Solution {
	if len(p.members) == 0 {
		panic("core: Random on empty population")
	}
	return p.members[r.Intn(len(p.members))]
}

// set writes s, whose signature is sig, as member i; i == Size()
// appends.
func (p *Population) set(i int, s *Solution, sig uint64) {
	if i == len(p.members) {
		p.members = append(p.members, s)
		p.objs = append(p.objs, s.Objs...)
		p.sigs = append(p.sigs, sig)
	} else {
		if p.sigs[i] == plainSig {
			p.plain--
		}
		p.members[i] = s
		copy(p.objs[i*p.nobj:], s.Objs)
		p.sigs[i] = sig
	}
	if sig == plainSig {
		p.plain++
	}
	p.stale++
}

func (p *Population) removeAt(i int) {
	if p.sigs[i] == plainSig {
		p.plain--
	}
	last, n := len(p.members)-1, p.nobj
	p.members[i] = p.members[last]
	p.members[last] = nil
	p.members = p.members[:last]
	copy(p.objs[i*n:(i+1)*n], p.objs[last*n:])
	p.objs = p.objs[:last*n]
	p.sigs[i] = p.sigs[last]
	p.sigs = p.sigs[:last]
}

// signature returns s's packed buckets under the current bounds, or
// plainSig if s is infeasible or has a NaN objective.
func (p *Population) signature(s *Solution) uint64 {
	if s.Violation() != 0 { // also true of a NaN violation
		return plainSig
	}
	return p.pack(s.Objs)
}

// pack buckets the first sigLanes objectives of row, one per byte. The
// map from objective to bucket is nondecreasing for every non-NaN
// input, ±Inf and out-of-range values included (they clamp), which is
// all the scans rely on; the bounds only decide how much they prune.
func (p *Population) pack(row []float64) uint64 {
	var sig uint64
	for j, f := range row {
		if f != f {
			return plainSig
		}
		if j >= sigLanes {
			continue
		}
		// t > 0 is false for NaN (0·Inf under a collapsed lane), which
		// therefore lands in bucket 0 with everything else in the lane.
		if t := (f - p.lo[j]) * p.scale[j]; t >= sigBuckets-1 {
			sig |= (sigBuckets - 1) << (8 * j)
		} else if t > 0 {
			sig |= uint64(t) << (8 * j)
		}
	}
	return sig
}

// rebucket re-derives the lane bounds from the finite objectives of
// the current signature-bearing members and re-packs their signatures.
func (p *Population) rebucket() {
	n := p.nobj
	lanes := min(n, sigLanes)
	var lo, hi [sigLanes]float64
	for j := range lo {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for i, sig := range p.sigs {
		if sig == plainSig {
			continue
		}
		for j, f := range p.objs[i*n : i*n+lanes] {
			if math.IsInf(f, 0) {
				continue
			}
			lo[j], hi[j] = min(lo[j], f), max(hi[j], f)
		}
	}
	for j := range lo {
		// A lane with no spread (or none that fits a float64: the
		// division then yields 0) buckets everything to 0.
		p.lo[j], p.scale[j] = 0, 0
		if hi[j] > lo[j] {
			p.lo[j], p.scale[j] = lo[j], sigBuckets/(hi[j]-lo[j])
		}
	}
	for i, sig := range p.sigs {
		if sig != plainSig {
			p.sigs[i] = p.pack(p.objs[i*n : (i+1)*n])
		}
	}
	p.stale = 0
}
