package core

import (
	"math"
	"testing"

	"borgmoea/internal/rng"
)

// refArchive is a verbatim copy of the pre-index linear-scan ε-archive
// (the seed implementation). It exists only as the oracle for the
// differential harness below: the indexed Archive must match it
// decision for decision, member for member, in order — member order is
// observable through SaveArchive bytes and federation emigrant
// selection, so "equivalent up to permutation" is not good enough.
type refArchive struct {
	epsilons []float64
	members  []*Solution
	boxes    [][]int64

	improvements uint64
	numOps       int
	opCounts     []int
}

func newRefArchive(epsilons []float64, numOps int) *refArchive {
	return &refArchive{
		epsilons: append([]float64(nil), epsilons...),
		numOps:   numOps,
		opCounts: make([]int, numOps),
	}
}

func (a *refArchive) box(s *Solution) []int64 {
	b := make([]int64, len(s.Objs))
	for i, f := range s.Objs {
		b[i] = int64(math.Floor(f / a.epsilons[i]))
	}
	return b
}

func (a *refArchive) cornerDistance(s *Solution, box []int64) float64 {
	d := 0.0
	for i, f := range s.Objs {
		z := f/a.epsilons[i] - float64(box[i])
		d += z * z
	}
	return d
}

func (a *refArchive) Add(s *Solution) bool {
	if !s.Evaluated() {
		panic("core: archiving an unevaluated solution")
	}
	if v := s.Violation(); v > 0 {
		return a.addInfeasible(s, v)
	}
	a.dropInfeasible()

	sBox := a.box(s)
	sameBox := -1
	for i := 0; i < len(a.members); i++ {
		m := a.members[i]
		mBox := a.boxes[i]
		if boxEqual(sBox, mBox) {
			switch Compare(s, m) {
			case -1:
				sameBox = i
			case 1:
				return false
			default:
				if a.cornerDistance(s, sBox) < a.cornerDistance(m, mBox) {
					sameBox = i
				} else {
					return false
				}
			}
			continue
		}
		switch boxCompare(sBox, mBox) {
		case 1:
			return false
		case -1:
			a.removeAt(i)
			i--
		}
	}
	if sameBox >= 0 {
		a.removeAt(sameBox)
	}
	a.members = append(a.members, s)
	a.boxes = append(a.boxes, sBox)
	a.credit(s, +1)
	if sameBox < 0 {
		a.improvements++
	}
	return true
}

func (a *refArchive) addInfeasible(s *Solution, v float64) bool {
	if len(a.members) == 0 {
		a.members = append(a.members, s)
		a.boxes = append(a.boxes, a.box(s))
		a.credit(s, +1)
		return true
	}
	if a.members[0].Violation() == 0 {
		return false
	}
	if v < a.members[0].Violation() {
		a.removeAt(0)
		a.members = append(a.members, s)
		a.boxes = append(a.boxes, a.box(s))
		a.credit(s, +1)
		return true
	}
	return false
}

func (a *refArchive) dropInfeasible() {
	for i := 0; i < len(a.members); i++ {
		if a.members[i].Violation() > 0 {
			a.removeAt(i)
			i--
		}
	}
}

func (a *refArchive) removeAt(i int) {
	a.credit(a.members[i], -1)
	last := len(a.members) - 1
	a.members[i] = a.members[last]
	a.members[last] = nil
	a.members = a.members[:last]
	a.boxes[i] = a.boxes[last]
	a.boxes[last] = nil
	a.boxes = a.boxes[:last]
}

func (a *refArchive) credit(s *Solution, delta int) {
	if s.Operator >= 0 && s.Operator < a.numOps {
		a.opCounts[s.Operator] += delta
	}
}

// checkArchivesEqual asserts the indexed archive and the reference are
// in identical observable states: same members in the same order
// (pointer identity), same ε-progress, same operator credits — and
// that the index's internal structures agree with the members.
func checkArchivesEqual(t *testing.T, step int, a *Archive, ref *refArchive) {
	t.Helper()
	if len(a.members) != len(ref.members) {
		t.Fatalf("step %d: size %d, ref %d", step, len(a.members), len(ref.members))
	}
	for i := range a.members {
		if a.members[i] != ref.members[i] {
			t.Fatalf("step %d: member %d differs: %v vs ref %v",
				step, i, a.members[i].Objs, ref.members[i].Objs)
		}
		if !boxEqual(a.boxAt(i), ref.boxes[i]) {
			t.Fatalf("step %d: box %d differs: %v vs ref %v",
				step, i, a.boxAt(i), ref.boxes[i])
		}
	}
	if a.improvements != ref.improvements {
		t.Fatalf("step %d: improvements %d, ref %d", step, a.improvements, ref.improvements)
	}
	for op := range a.opCounts {
		if a.opCounts[op] != ref.opCounts[op] {
			t.Fatalf("step %d: opCounts %v, ref %v", step, a.opCounts, ref.opCounts)
		}
	}
	// Index integrity: sums, lane signatures and grid must agree with
	// boxData.
	for i := range a.members {
		sum := 0.0
		var sig uint64
		for j, b := range a.boxAt(i) {
			sum += float64(b)
			if j < sigLanes {
				sig |= uint64(min(max(b, 0), sigBuckets-1)) << (8 * j)
			}
		}
		if a.sums[i] != sum {
			t.Fatalf("step %d: stale sum at %d: %g want %g", step, i, a.sums[i], sum)
		}
		if a.sigs[i] != sig {
			t.Fatalf("step %d: stale signature at %d: %#x want %#x", step, i, a.sigs[i], sig)
		}
		if a.marks[i] {
			t.Fatalf("step %d: stale removal mark at %d", step, i)
		}
		if a.grid != nil {
			if j, ok := a.grid[makeKey(a.boxAt(i))]; !ok || j != i {
				t.Fatalf("step %d: grid maps box of member %d to (%d,%v)", step, i, j, ok)
			}
		}
	}
	if len(a.sigs) != len(a.members) {
		t.Fatalf("step %d: %d signatures for %d members", step, len(a.sigs), len(a.members))
	}
	if a.grid != nil && len(a.grid) != len(a.members) {
		t.Fatalf("step %d: grid has %d entries for %d members", step, len(a.grid), len(a.members))
	}
}

// diffStream drives both archives with an identical solution stream
// derived from the seed, mixing feasible and infeasible solutions,
// clustered points (same-box duels, corner-distance ties), exact
// duplicates and rotations (equal box sums in other boxes). It returns
// how many times a feasible candidate met a member in another box with
// the same coordinate sum: the sweep's equal-sum case.
func diffStream(t *testing.T, seed uint64, m int, eps float64, steps int) (equalSums int) {
	t.Helper()
	r := rng.New(seed)
	a := NewArchive(UniformEpsilons(m, eps), 6)
	ref := newRefArchive(UniformEpsilons(m, eps), 6)
	var prev *Solution
	for step := 0; step < steps; step++ {
		s := &Solution{Objs: make([]float64, m), Operator: r.Intn(8) - 1}
		switch mode := r.Intn(10); {
		case mode == 0 && prev != nil:
			// Exact duplicate of an earlier candidate (forces the
			// corner-distance "not strictly closer" rejection).
			copy(s.Objs, prev.Objs)
		case mode == 1 && prev != nil:
			// Same-box jitter: tiny perturbation around an earlier
			// point to provoke in-box duels and corner ties.
			for i := range s.Objs {
				s.Objs[i] = prev.Objs[i] + (r.Float64()-0.5)*eps*0.5
			}
		case mode == 3 && prev != nil:
			// An earlier candidate rotated by one objective: under a
			// uniform ε its box has the same coordinate sum.
			copy(s.Objs, prev.Objs[1:])
			s.Objs[m-1] = prev.Objs[0]
		case mode == 2:
			// Infeasible with a coarse violation level (coarse so
			// equal-violation rejections occur).
			for i := range s.Objs {
				s.Objs[i] = r.Float64()
			}
			s.Constrs = []float64{float64(r.Intn(4))}
		default:
			for i := range s.Objs {
				s.Objs[i] = 2*r.Float64() - 1
			}
		}
		prev = s
		if s.Violation() == 0 {
			box := a.box(s)
			sum := 0.0
			for _, b := range box {
				sum += float64(b)
			}
			for i, si := range a.sums {
				if si == sum && !boxEqual(a.boxAt(i), box) {
					equalSums++
				}
			}
		}
		got, want := a.Add(s), ref.Add(s)
		if got != want {
			t.Fatalf("seed %d step %d: Add=%v ref=%v objs=%v constrs=%v",
				seed, step, got, want, s.Objs, s.Constrs)
		}
		checkArchivesEqual(t, step, a, ref)
	}
	return equalSums
}

// TestArchiveMatchesReference is the differential property harness: on
// identical random streams the indexed archive and the seed linear
// scan must stay in identical observable states after every Add.
func TestArchiveMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		// Vary dimensionality (including m > gridDims to exercise the
		// sum-filtered fallback, and m > sigLanes, whose signatures
		// cover the leading objectives only) and box resolution, down
		// to ε = 0.001, where box indices run to ±1000 and every lane
		// signature clamps at both ends.
		m := 1 + int(seed%9) // 1..9 objectives; 9 exceeds gridDims
		eps := archiveEpsilons[seed%uint64(len(archiveEpsilons))]
		diffStream(t, seed, m, eps, 400)
	}
}

// archiveEpsilons are the box resolutions the differential harness
// draws from; the fuzzer's dims byte picks one past its first nine
// values, so the seed corpus keeps the original ε = 0.1.
var archiveEpsilons = []float64{0.1, 0.25, 0.05, 0.001}

// archiveFuzzSeeds is FuzzArchiveEquivalence's seed corpus.
var archiveFuzzSeeds = []struct {
	seed uint64
	dims uint8
}{
	{1, 2},
	{42, 5},
	{7, 9},
	{11, 3*9 + 4}, // ε = 0.001: clamped lanes
	{5, 9 + 4},    // ε = 0.25: coarse boxes, many equal sums
}

// fuzzArchive is one FuzzArchiveEquivalence input: the dims byte picks
// the objective count and ε.
func fuzzArchive(t *testing.T, seed uint64, dims uint8) int {
	m := 1 + int(dims%9)
	eps := archiveEpsilons[int(dims/9)%len(archiveEpsilons)]
	return diffStream(t, seed, m, eps, 200)
}

// FuzzArchiveEquivalence lets the fuzzer hunt for divergence between
// the indexed archive and the reference implementation.
func FuzzArchiveEquivalence(f *testing.F) {
	for _, c := range archiveFuzzSeeds {
		f.Add(c.seed, c.dims)
	}
	f.Fuzz(func(t *testing.T, seed uint64, dims uint8) { fuzzArchive(t, seed, dims) })
}

// TestArchiveFuzzSeedsMeetEqualSums: every seed of the fuzz corpus
// with more than one objective sends candidates against members in
// other boxes with the same coordinate sum, so the sweep's equal-sum
// case, and its lane prefilter, face the reference from the start.
func TestArchiveFuzzSeedsMeetEqualSums(t *testing.T) {
	for _, c := range archiveFuzzSeeds {
		if c.dims%9 == 0 {
			continue // one objective: an equal sum is the same box
		}
		if n := fuzzArchive(t, c.seed, c.dims); n == 0 {
			t.Errorf("seed %d dims %d: no equal-sum pair in another box", c.seed, c.dims)
		}
	}
}

// TestArchiveAddNoAllocs pins the steady-state allocation discipline:
// once the archive has warmed up, Add must not touch the heap.
func TestArchiveAddNoAllocs(t *testing.T) {
	r := rng.New(3)
	a := NewArchive(UniformEpsilons(4, 0.1), 6)
	pts := make([]*Solution, 512)
	for i := range pts {
		pts[i] = sol(r.Float64(), r.Float64(), r.Float64(), r.Float64())
	}
	for _, s := range pts {
		a.Add(s) // warm up: grow members/boxData/sums/grid to capacity
	}
	n := 0
	avg := testing.AllocsPerRun(200, func() {
		a.Add(pts[n%len(pts)])
		n++
	})
	if avg > 0 {
		t.Fatalf("Add allocates %.2f objects/op in steady state, want 0", avg)
	}
}
