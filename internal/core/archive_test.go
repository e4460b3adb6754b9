package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
)

func newTestArchive(eps float64, m int) *Archive {
	return NewArchive(UniformEpsilons(m, eps), 6)
}

func TestArchiveAcceptsFirst(t *testing.T) {
	a := newTestArchive(0.1, 2)
	if !a.Add(sol(0.5, 0.5)) {
		t.Fatal("first solution rejected")
	}
	if a.Size() != 1 || a.Improvements() != 1 {
		t.Fatalf("size=%d improvements=%d, want 1/1", a.Size(), a.Improvements())
	}
}

func TestArchiveRejectsDominated(t *testing.T) {
	a := newTestArchive(0.1, 2)
	a.Add(sol(0.2, 0.2))
	if a.Add(sol(0.8, 0.8)) {
		t.Fatal("ε-dominated solution accepted")
	}
	if a.Size() != 1 {
		t.Fatalf("size = %d, want 1", a.Size())
	}
}

func TestArchiveRemovesDominatedMembers(t *testing.T) {
	a := newTestArchive(0.1, 2)
	a.Add(sol(0.8, 0.85))
	a.Add(sol(0.85, 0.8))
	if !a.Add(sol(0.1, 0.1)) {
		t.Fatal("dominating solution rejected")
	}
	if a.Size() != 1 {
		t.Fatalf("dominated members not purged: size = %d", a.Size())
	}
	if a.Members()[0].Objs[0] != 0.1 {
		t.Fatal("wrong member survived")
	}
}

// TestArchiveEqualSumDominance: past 2^53 a float64 coordinate sum
// rounds, so box (2^53, 0) dominates box (2^53, 1) although the sums
// are equal. The sweep's equal-sum case must still test both
// directions, in either arrival order.
func TestArchiveEqualSumDominance(t *testing.T) {
	const big = 1 << 53
	if float64(big)+0 != float64(big)+1 {
		t.Fatal("the sums do not round together")
	}
	loser, winner := sol(big, 1), sol(big, 0)
	a := newTestArchive(1, 2)
	a.Add(loser)
	if !a.Add(winner) || a.Size() != 1 || a.Members()[0] != winner {
		t.Fatalf("the dominating box did not displace the member: %d members", a.Size())
	}
	b := newTestArchive(1, 2)
	b.Add(winner)
	if b.Add(loser) || b.Size() != 1 {
		t.Fatalf("the dominated box was accepted: %d members", b.Size())
	}
}

func TestArchiveKeepsNondominated(t *testing.T) {
	a := newTestArchive(0.1, 2)
	a.Add(sol(0.15, 0.85))
	a.Add(sol(0.85, 0.15))
	a.Add(sol(0.45, 0.45))
	if a.Size() != 3 {
		t.Fatalf("size = %d, want 3", a.Size())
	}
	if a.Improvements() != 3 {
		t.Fatalf("improvements = %d, want 3", a.Improvements())
	}
}

func TestArchiveSameBoxKeepsDominant(t *testing.T) {
	a := newTestArchive(0.1, 2)
	a.Add(sol(0.55, 0.55))
	// Same box [5,5], dominates the incumbent.
	if !a.Add(sol(0.52, 0.52)) {
		t.Fatal("in-box dominating solution rejected")
	}
	if a.Size() != 1 {
		t.Fatalf("size = %d, want 1 (same box)", a.Size())
	}
	if a.Members()[0].Objs[0] != 0.52 {
		t.Fatal("in-box dominated incumbent survived")
	}
	// Same-box replacement is not ε-progress.
	if a.Improvements() != 1 {
		t.Fatalf("improvements = %d, want 1", a.Improvements())
	}
}

func TestArchiveSameBoxCornerTieBreak(t *testing.T) {
	a := newTestArchive(1.0, 2)
	a.Add(sol(0.4, 0.8)) // corner distance² = 0.16+0.64 = 0.80
	// Nondominated with the incumbent, same box [0,0], closer to the
	// corner: must replace.
	if !a.Add(sol(0.6, 0.3)) { // 0.36+0.09 = 0.45
		t.Fatal("closer-to-corner solution rejected")
	}
	if a.Members()[0].Objs[1] != 0.3 {
		t.Fatal("corner tie-break kept the farther solution")
	}
	// Farther one must now be rejected.
	if a.Add(sol(0.3, 0.9)) { // 0.09+0.81 = 0.90
		t.Fatal("farther-from-corner solution accepted")
	}
}

func TestArchiveEpsilonProgressStagnation(t *testing.T) {
	a := newTestArchive(0.1, 2)
	a.Add(sol(0.55, 0.55))
	before := a.Improvements()
	// In-box improvements do not count as ε-progress.
	a.Add(sol(0.54, 0.54))
	a.Add(sol(0.53, 0.53))
	if a.Improvements() != before {
		t.Fatal("in-box refinement counted as ε-progress")
	}
	// A new nondominated box does.
	a.Add(sol(0.3, 0.8))
	if a.Improvements() != before+1 {
		t.Fatal("new box did not count as ε-progress")
	}
}

func TestArchiveOperatorCredit(t *testing.T) {
	a := newTestArchive(0.1, 2)
	s1 := sol(0.2, 0.8)
	s1.Operator = 2
	s2 := sol(0.8, 0.2)
	s2.Operator = 3
	a.Add(s1)
	a.Add(s2)
	counts := a.OperatorCounts()
	if counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("operator counts = %v", counts)
	}
	// Dominating both removes their credit.
	s3 := sol(0.05, 0.05)
	s3.Operator = 2
	a.Add(s3)
	counts = a.OperatorCounts()
	if counts[2] != 1 || counts[3] != 0 {
		t.Fatalf("credit not adjusted on removal: %v", counts)
	}
}

func TestArchiveUncreditedOperator(t *testing.T) {
	a := newTestArchive(0.1, 2)
	s := sol(0.5, 0.5) // Operator zero-value is 0; set to -1 explicitly
	s.Operator = -1
	a.Add(s)
	for i, c := range a.OperatorCounts() {
		if c != 0 {
			t.Fatalf("uncredited solution bumped operator %d", i)
		}
	}
}

func TestArchiveInfeasibleHandling(t *testing.T) {
	a := newTestArchive(0.1, 2)
	bad := sol(0.1, 0.1)
	bad.Constrs = []float64{5}
	if !a.Add(bad) {
		t.Fatal("infeasible solution rejected from empty archive")
	}
	worse := sol(0.1, 0.1)
	worse.Constrs = []float64{9}
	if a.Add(worse) {
		t.Fatal("more-violating solution accepted")
	}
	better := sol(0.1, 0.1)
	better.Constrs = []float64{1}
	if !a.Add(better) {
		t.Fatal("less-violating solution rejected")
	}
	if a.Size() != 1 {
		t.Fatalf("infeasible phase should keep exactly one, got %d", a.Size())
	}
	// First feasible solution flushes the placeholder.
	if !a.Add(sol(0.9, 0.9)) {
		t.Fatal("first feasible solution rejected")
	}
	if a.Size() != 1 || a.Members()[0].Violation() != 0 {
		t.Fatal("feasible solution did not flush infeasible placeholder")
	}
	// And infeasible solutions are rejected from then on.
	if a.Add(bad) {
		t.Fatal("infeasible accepted into feasible archive")
	}
}

func TestArchiveRejectsUnevaluated(t *testing.T) {
	a := newTestArchive(0.1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("unevaluated Add did not panic")
		}
	}()
	a.Add(&Solution{Vars: []float64{1}})
}

func TestNewArchiveValidation(t *testing.T) {
	for _, eps := range [][]float64{nil, {0.1, 0}, {-1}} {
		eps := eps
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArchive(%v) did not panic", eps)
				}
			}()
			NewArchive(eps, 1)
		}()
	}
}

// TestArchiveInvariant is the key property test: after any sequence of
// random additions, no member ε-box-dominates another and every
// member's box is unique.
func TestArchiveInvariant(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a := newTestArchive(0.07, 3)
		for i := 0; i < 150; i++ {
			a.Add(sol(r.Float64(), r.Float64(), r.Float64()))
		}
		seen := map[[3]int64]bool{}
		for i := range a.members {
			bi := a.boxAt(i)
			key := [3]int64{bi[0], bi[1], bi[2]}
			if seen[key] {
				return false // duplicate box
			}
			seen[key] = true
		}
		for i := range a.members {
			for j := range a.members {
				if i != j && boxCompare(a.boxAt(i), a.boxAt(j)) != 0 {
					return false // one box dominates another
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArchiveBoundedSize: with resolution ε over [0,1]^m, the archive
// cannot exceed the number of nondominated boxes; sanity-check it
// stays well bounded under heavy load.
func TestArchiveBoundedSize(t *testing.T) {
	r := rng.New(5)
	a := newTestArchive(0.25, 2)
	for i := 0; i < 5000; i++ {
		a.Add(sol(r.Float64(), r.Float64()))
	}
	// 2-D with ε=0.25: at most 4+1 staircase boxes... conservatively
	// the diagonal count 1/ε + 1.
	if a.Size() > 5 {
		t.Fatalf("archive size %d exceeds ε-grid staircase bound", a.Size())
	}
}

func TestArchiveObjectivesCopies(t *testing.T) {
	a := newTestArchive(0.1, 2)
	a.Add(sol(0.5, 0.5))
	objs := a.Objectives()
	objs[0][0] = 99
	if a.Members()[0].Objs[0] == 99 {
		t.Fatal("Objectives returned aliased storage")
	}
}

func TestArchiveNegativeObjectives(t *testing.T) {
	// Box arithmetic must be correct for negative objective values.
	a := newTestArchive(0.1, 2)
	a.Add(sol(-0.55, -0.55))
	if a.Add(sol(-0.3, -0.3)) {
		t.Fatal("dominated negative-space solution accepted")
	}
	if !a.Add(sol(-0.95, -0.95)) {
		t.Fatal("dominating negative-space solution rejected")
	}
	if a.Size() != 1 {
		t.Fatalf("size = %d, want 1", a.Size())
	}
}

func TestBoxIndexFloor(t *testing.T) {
	a := newTestArchive(0.1, 1)
	s := sol(0.25)
	b := a.box(s)
	if b[0] != 2 {
		t.Fatalf("box(0.25, ε=0.1) = %d, want 2", b[0])
	}
	s2 := sol(-0.25)
	if b2 := a.box(s2); b2[0] != -3 {
		t.Fatalf("box(-0.25, ε=0.1) = %d, want -3 (floor)", b2[0])
	}
}

// benchArchive builds an archive prefilled to roughly the target size:
// 5-objective points near the unit simplex are mutually nondominated,
// so with a fine enough ε the archive grows to (and holds) the target.
// ε is chosen per size so occupancy, not rejection, dominates.
func benchArchive(size int) (*Archive, []*Solution) {
	eps := map[int]float64{100: 0.05, 1000: 0.02, 10000: 0.008}[size]
	if eps == 0 {
		eps = 0.02
	}
	r := rng.New(1)
	a := NewArchive(UniformEpsilons(5, eps), 6)
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
	for a.Size() < size {
		a.Add(simplex())
	}
	// The candidate stream mirrors steady-state Borg: most offspring
	// are small operator perturbations of archive members (same-box or
	// near-box duels), the rest land farther afield (full sweep).
	pts := make([]*Solution, 1024)
	for i := range pts {
		if i%3 != 0 {
			parent := a.Members()[r.Intn(a.Size())]
			objs := make([]float64, 5)
			for j, f := range parent.Objs {
				objs[j] = f + eps*0.1*(r.Float64()-0.5)
			}
			pts[i] = &Solution{Objs: objs}
		} else {
			pts[i] = simplex()
		}
	}
	return a, pts
}

// benchArchiveDTLZ2 builds the archive of DTLZ2_5 evaluations at
// ε = 0.15, the benchmark workloads' setting, and a candidate stream
// like benchArchive's. The front is a sphere octant, so its boxes'
// coordinate sums cluster: most members share their sum with many
// others, and the sweep's equal-sum case is the common one.
func benchArchiveDTLZ2() (*Archive, []*Solution) {
	const eps = 0.15
	r := rng.New(1)
	p := problems.NewDTLZ2(5)
	near := func(pos []float64) *Solution {
		vars := make([]float64, p.NumVars())
		copy(vars, pos)
		for j := len(pos); j < len(vars); j++ {
			vars[j] = 0.5 + 0.1*(r.Float64()-0.5)
		}
		objs := make([]float64, 5)
		p.Evaluate(vars, objs)
		return &Solution{Vars: vars, Objs: objs}
	}
	fresh := func() *Solution {
		return near([]float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()})
	}
	a := NewArchive(UniformEpsilons(5, eps), 6)
	for i := 0; i < 20000; i++ {
		a.Add(fresh())
	}
	pts := make([]*Solution, 1024)
	for i := range pts {
		if i%3 != 0 {
			parent := a.Members()[r.Intn(a.Size())]
			pos := make([]float64, 4)
			for j := range pos {
				pos[j] = min(max(parent.Vars[j]+0.02*(r.Float64()-0.5), 0), 1)
			}
			pts[i] = near(pos)
		} else {
			pts[i] = fresh()
		}
	}
	return a, pts
}

func benchmarkAdd(b *testing.B, a *Archive, pts []*Solution) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Add(pts[i%len(pts)])
	}
}

func BenchmarkArchiveAdd(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			a, pts := benchArchive(size)
			benchmarkAdd(b, a, pts)
		})
	}
	b.Run("dtlz2_5,eps=0.15", func(b *testing.B) {
		a, pts := benchArchiveDTLZ2()
		benchmarkAdd(b, a, pts)
	})
}

// BenchmarkArchiveAddReference runs the identical workload through the
// pre-index linear-scan implementation (the differential oracle), so a
// single benchmark run shows the indexed archive's speedup in place.
func BenchmarkArchiveAddReference(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			a, pts := benchArchive(size)
			ref := newRefArchive(a.Epsilons(), 6)
			for _, m := range a.Members() {
				ref.Add(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref.Add(pts[i%len(pts)])
			}
		})
	}
}
