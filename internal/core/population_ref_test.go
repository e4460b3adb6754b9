package core

import (
	"fmt"
	"math"
	"testing"

	"borgmoea/internal/rng"
)

// refPopulation is a verbatim copy of the pre-mirror Population (the
// seed implementation: a Compare against every member). It exists only
// as the oracle for the differential harness below. The mirrored
// Population must match it call for call — return value, members
// pointer-for-pointer in order, and RNG state — because the victim
// choice feeds every archive digest and replay log downstream.
type refPopulation struct {
	members  []*Solution
	capacity int
}

func newRefPopulation(capacity int) *refPopulation {
	return &refPopulation{capacity: capacity}
}

func (p *refPopulation) SetCapacity(capacity int, r *rng.Source) {
	p.capacity = capacity
	for len(p.members) > capacity {
		p.removeAt(r.Intn(len(p.members)))
	}
}

func (p *refPopulation) Clear() { p.members = p.members[:0] }

func (p *refPopulation) Members() []*Solution { return p.members }

func (p *refPopulation) Add(s *Solution, r *rng.Source) bool {
	if !s.Evaluated() {
		panic("core: adding an unevaluated solution to the population")
	}
	if len(p.members) < p.capacity {
		p.members = append(p.members, s)
		return true
	}
	var dominated []int
	for i, m := range p.members {
		switch Compare(s, m) {
		case 1:
			return false // a member dominates the offspring
		case -1:
			dominated = append(dominated, i)
		}
	}
	var victim int
	if len(dominated) > 0 {
		victim = dominated[r.Intn(len(dominated))]
	} else {
		victim = r.Intn(len(p.members))
	}
	p.members[victim] = s
	return true
}

func (p *refPopulation) Tournament(k int, r *rng.Source) *Solution {
	if len(p.members) == 0 {
		panic("core: tournament on empty population")
	}
	if k < 1 {
		k = 1
	}
	best := p.members[r.Intn(len(p.members))]
	for i := 1; i < k; i++ {
		challenger := p.members[r.Intn(len(p.members))]
		if Compare(challenger, best) == -1 {
			best = challenger
		}
	}
	return best
}

func (p *refPopulation) removeAt(i int) {
	last := len(p.members) - 1
	p.members[i] = p.members[last]
	p.members[last] = nil
	p.members = p.members[:last]
}

// popPair drives the mirrored population and the reference in lock
// step, each with its own identically seeded RNG, and checks after
// every call that nothing observable differs.
type popPair struct {
	t      *testing.T
	p      *Population
	ref    *refPopulation
	pr, rr *rng.Source
	step   int
}

func newPopPair(t *testing.T, capacity int, seed uint64) *popPair {
	return &popPair{
		t: t, p: NewPopulation(capacity), ref: newRefPopulation(capacity),
		pr: rng.New(seed), rr: rng.New(seed),
	}
}

func (pp *popPair) add(s *Solution) {
	pp.t.Helper()
	got, want := pp.p.Add(s, pp.pr), pp.ref.Add(s, pp.rr)
	if got != want {
		pp.t.Fatalf("step %d: Add=%v ref=%v objs=%v constrs=%v", pp.step, got, want, s.Objs, s.Constrs)
	}
	pp.check()
}

func (pp *popPair) tournament(k int) {
	pp.t.Helper()
	got, want := pp.p.Tournament(k, pp.pr), pp.ref.Tournament(k, pp.rr)
	if got != want {
		pp.t.Fatalf("step %d: Tournament(%d)=%v ref=%v", pp.step, k, got.Objs, want.Objs)
	}
	pp.check()
}

func (pp *popPair) setCapacity(c int) {
	pp.t.Helper()
	pp.p.SetCapacity(c, pp.pr)
	pp.ref.SetCapacity(c, pp.rr)
	pp.check()
}

func (pp *popPair) clear() {
	pp.t.Helper()
	pp.p.Clear()
	pp.ref.Clear()
	pp.check()
}

// check asserts identical members (pointer identity, in order) and RNG
// state, and that the mirror agrees with the members it shadows.
func (pp *popPair) check() {
	pp.t.Helper()
	pp.step++
	p, ref := pp.p, pp.ref
	if len(p.members) != len(ref.members) {
		pp.t.Fatalf("step %d: size %d, ref %d", pp.step, len(p.members), len(ref.members))
	}
	for i := range p.members {
		if p.members[i] != ref.members[i] {
			pp.t.Fatalf("step %d: member %d differs: %v vs ref %v",
				pp.step, i, p.members[i].Objs, ref.members[i].Objs)
		}
	}
	if *pp.pr != *pp.rr {
		pp.t.Fatalf("step %d: RNG state diverged", pp.step)
	}
	n := p.nobj
	if len(p.sigs) != len(p.members) || len(p.objs) != n*len(p.members) {
		pp.t.Fatalf("step %d: mirror holds %d sigs, %d floats for %d members of %d objectives",
			pp.step, len(p.sigs), len(p.objs), len(p.members), n)
	}
	plain := 0
	for i, m := range p.members {
		row := p.objs[i*n : (i+1)*n]
		for j, f := range m.Objs {
			if math.Float64bits(row[j]) != math.Float64bits(f) {
				pp.t.Fatalf("step %d: stale row %d: %v, member has %v", pp.step, i, row, m.Objs)
			}
		}
		if want := p.signature(m); p.sigs[i] != want {
			pp.t.Fatalf("step %d: stale signature at %d: %016x want %016x", pp.step, i, p.sigs[i], want)
		}
		if p.sigs[i] == plainSig {
			plain++
		}
	}
	if p.plain != plain {
		pp.t.Fatalf("step %d: plain count %d, members say %d", pp.step, p.plain, plain)
	}
}

// popStream shapes one differential run.
type popStream struct {
	m         int  // objectives
	capacity  int  // initial capacity
	steps     int  // at-capacity Adds per phase
	plainIn   int  // one candidate in plainIn is infeasible or NaN; 0 = none
	collapsed bool // objective 0 is the same for every candidate
}

// candidate draws the next solution of the stream: mostly uniform
// points, mixed with exact duplicates and near-copies of the previous
// candidate, coarse lattice points (per-objective ties), ±Inf, points
// far outside any bucket range, and — at the stream's plain rate —
// NaN objectives and infeasible solutions with coarse, often equal,
// violations.
func (st popStream) candidate(r *rng.Source, prev *Solution) *Solution {
	s := &Solution{Objs: make([]float64, st.m)}
	for i := range s.Objs {
		s.Objs[i] = r.Float64()
	}
	switch mode := r.Intn(12); {
	case mode == 0 && prev != nil:
		copy(s.Objs, prev.Objs)
	case mode == 1 && prev != nil:
		for i := range s.Objs {
			s.Objs[i] = prev.Objs[i] + (r.Float64()-0.5)*0.02
		}
	case mode == 2 || mode == 3:
		for i := range s.Objs {
			s.Objs[i] = float64(r.Intn(4)) / 4
		}
	case mode == 4:
		s.Objs[r.Intn(st.m)] = math.Inf(1 - 2*r.Intn(2))
	case mode == 5:
		far := 1e6 * float64(1-2*r.Intn(2))
		for i := range s.Objs {
			s.Objs[i] += far
		}
	}
	if st.collapsed {
		s.Objs[0] = 0.5
	}
	if st.plainIn > 0 && r.Intn(st.plainIn) == 0 {
		if r.Intn(2) == 0 {
			s.Objs[r.Intn(st.m)] = math.NaN()
		} else {
			s.Constrs = []float64{float64(r.Intn(3)), -float64(r.Intn(2))}
		}
	}
	return s
}

// diffPopulation runs the whole lifecycle on both implementations:
// fill, at-capacity Adds interleaved with tournaments, a SetCapacity
// shrink, Clear, regrow and refill.
func diffPopulation(t *testing.T, seed uint64, st popStream) {
	t.Helper()
	r := rng.New(seed)
	pp := newPopPair(t, st.capacity, seed^0x706f70)
	var prev *Solution
	phase := func(adds int) {
		for i := 0; i < adds; i++ {
			prev = st.candidate(r, prev)
			pp.add(prev)
			if i%3 == 0 {
				pp.tournament([]int{0, 1, 2, 7, 40}[r.Intn(5)])
			}
		}
	}
	phase(st.capacity + st.steps)
	pp.setCapacity(max(st.capacity/2, 1))
	phase(st.steps)
	pp.clear()
	pp.setCapacity(st.capacity + 5)
	phase(st.capacity + 5 + st.steps)
}

func streamFor(seed uint64, dims uint8, flags uint8) popStream {
	st := popStream{
		m:         []int{1, 2, 5, 8, 10}[int(dims)%5],
		capacity:  8 + int(seed%3)*20,
		steps:     150,
		collapsed: flags&1 != 0,
	}
	switch flags >> 1 & 3 {
	case 1:
		st.plainIn = 40 // plain members come and go: both paths, and the switch between them
	case 2:
		st.plainIn = 3 // nearly always on the Compare path
	}
	return st
}

// TestPopulationMatchesReference is the differential property harness:
// on identical streams the mirrored population and the seed scan must
// agree after every call. Dimensions include more objectives than
// signature lanes; stream shapes cover all-feasible (signature path
// only), occasional and frequent NaN/infeasible candidates, and a
// collapsed objective.
func TestPopulationMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		st := streamFor(seed, uint8(seed), uint8(seed/5))
		t.Run(fmt.Sprintf("seed=%d/m=%d/plain=%d/collapsed=%v", seed, st.m, st.plainIn, st.collapsed),
			func(t *testing.T) { diffPopulation(t, seed, st) })
	}
}

// TestPopulationClampedCandidate pins the clamping case on its own: a
// population bucketed over [0,1) meets candidates far below and far
// above that range, which must dominate everything / be rejected
// exactly as the reference says.
func TestPopulationClampedCandidate(t *testing.T) {
	pp := newPopPair(t, 50, 9)
	r := rng.New(9)
	for i := 0; i < 60; i++ { // fill, then enough Adds to derive bounds
		pp.add(sol(r.Float64(), r.Float64(), r.Float64()))
	}
	pp.add(sol(1e9, 1e9, 1e9))
	pp.add(sol(-1e9, -1e9, -1e9))
	pp.add(sol(-1e9, 0.5, 1e9))
	pp.add(sol(math.Inf(-1), math.Inf(-1), math.Inf(-1)))
	pp.tournament(200)
}

// FuzzPopulationEquivalence lets the fuzzer hunt for divergence between
// the mirrored population and the reference implementation.
func FuzzPopulationEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(0))
	f.Add(uint64(42), uint8(4), uint8(2))
	f.Add(uint64(7), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, dims, flags uint8) {
		diffPopulation(t, seed, streamFor(seed, dims, flags))
	})
}

// TestPopulationAddNoAllocs pins the steady-state allocation
// discipline: at capacity, Add must not touch the heap.
func TestPopulationAddNoAllocs(t *testing.T) {
	p, pts := benchPopulation(500)
	r := rng.New(3)
	for _, s := range pts {
		p.Add(s, r) // warm up: grow the dominated scratch
	}
	n := 0
	avg := testing.AllocsPerRun(500, func() {
		p.Add(pts[n%len(pts)], r)
		n++
	})
	if avg > 0 {
		t.Fatalf("Add allocates %.2f objects/op in steady state, want 0", avg)
	}
}

// benchPopulation returns a full population of n five-objective
// members near the unit simplex and a candidate stream shaped like
// steady-state Borg offspring: two thirds are small perturbations of
// members, the rest fresh points.
func benchPopulation(n int) (*Population, []*Solution) {
	r := rng.New(1)
	simplex := func() *Solution {
		objs := make([]float64, 5)
		sum := 0.0
		for i := range objs {
			objs[i] = -math.Log(1 - r.Float64())
			sum += objs[i]
		}
		for i := range objs {
			objs[i] = objs[i]/sum + 0.01*(r.Float64()-0.5)
		}
		return &Solution{Objs: objs}
	}
	p := NewPopulation(n)
	for p.Size() < n {
		p.Add(simplex(), r)
	}
	pts := make([]*Solution, 1024)
	for i := range pts {
		if i%3 == 0 {
			pts[i] = simplex()
			continue
		}
		parent := p.Members()[r.Intn(n)]
		objs := make([]float64, 5)
		for j, f := range parent.Objs {
			objs[j] = f + 0.01*(r.Float64()-0.5)
		}
		pts[i] = &Solution{Objs: objs}
	}
	return p, pts
}

var benchPopulationSizes = []int{100, 1000, 4000}

func BenchmarkPopulationAdd(b *testing.B) {
	for _, n := range benchPopulationSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p, pts := benchPopulation(n)
			r := rng.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Add(pts[i%len(pts)], r)
			}
		})
	}
}

// BenchmarkPopulationAddReference runs the identical workload through
// the seed scan (the differential oracle), so one benchmark run shows
// the mirror's factor in place.
func BenchmarkPopulationAddReference(b *testing.B) {
	for _, n := range benchPopulationSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p, pts := benchPopulation(n)
			ref := newRefPopulation(n)
			ref.members = append(ref.members, p.Members()...)
			r := rng.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref.Add(pts[i%len(pts)], r)
			}
		})
	}
}

// BenchmarkPopulationTournament is one selection at the tournament size
// Borg derives for the population (2% of capacity), after enough Adds
// for the signatures to be bucketed over the members.
func BenchmarkPopulationTournament(b *testing.B) {
	for _, n := range benchPopulationSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p, pts := benchPopulation(n)
			r := rng.New(2)
			p.Add(pts[0], r)
			k := max(n/50, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = p.Tournament(k, r)
			}
		})
	}
}

var benchSink *Solution
